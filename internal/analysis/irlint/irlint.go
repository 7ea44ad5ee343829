// Package irlint is the IR-level soundness linter behind `aggview
// lint`. Where the go-level analyzers (maporder, floateq, ...) check
// the implementation, irlint checks a *catalog*: it parses a script of
// CREATE TABLE / CREATE VIEW / SELECT statements, declares the tables
// and views on a fresh aggview.System (the path `aggview -exec` takes),
// builds each query against it, and reports, per view,
// the hazards that make rewriting unsound or silently impossible —
// which of the paper's usability conditions C1–C4 fail and why,
// duplicate GROUP BY columns, grouping columns projected out of the
// view, and aggregation views that cannot recover multiplicities
// (no COUNT column, AVG without its SUM and COUNT).
//
// Severities: "error" marks statements the system rejects, "warn"
// marks views that build but carry a rewriting hazard, "info" records
// the per-(query, view) usability verdicts. The CI gate fails on
// errors and warnings only.
package irlint

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"aggview"
	"aggview/internal/ir"
	"aggview/internal/sqlparser"
)

// Severity levels of a diagnostic. Errors and warnings gate CI; infos
// are advisory (per-pair usability explanations).
const (
	Error = "error"
	Warn  = "warn"
	Info  = "info"
)

// Diagnostic is one finding of the linter. Exactly the fields that
// apply are set: View for view-local checks, Query (and usually View)
// for usability records.
type Diagnostic struct {
	// File is the script the finding came from.
	File string `json:"file,omitempty"`
	// View names the view the finding concerns, if any.
	View string `json:"view,omitempty"`
	// Query identifies the query the finding concerns, if any
	// (rendered SQL, or "query #N" when the statement did not build).
	Query string `json:"query,omitempty"`
	// Check is the stable machine-readable check name, e.g.
	// "no-count-column" or "usability".
	Check string `json:"check"`
	// Severity is one of Error, Warn, Info.
	Severity string `json:"severity"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

// Result is the outcome of linting one script.
type Result struct {
	// Views and Queries count the successfully built objects.
	Views   int
	Queries int
	// Diags lists the findings in report order (errors as encountered,
	// then per-view hazards, then usability records).
	Diags []Diagnostic
}

// Failing counts the error- and warn-severity diagnostics.
func (r *Result) Failing() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity != Info {
			n++
		}
	}
	return n
}

// LintScript lints one script. Parse and build failures become
// error-severity diagnostics, never a Go error, so a catalog with one
// bad statement still gets its other statements checked. ctx bounds the
// usability analysis; one that is canceled or over budget ends the
// usability verdicts with an error-severity diagnostic.
func LintScript(ctx context.Context, file, src string) *Result {
	res := &Result{}
	add := func(d Diagnostic) {
		d.File = file
		res.Diags = append(res.Diags, d)
	}

	stmts, err := sqlparser.ParseScript(src)
	if err != nil {
		add(Diagnostic{
			Check: "parse-error", Severity: Error,
			Message: err.Error(),
		})
		return res
	}

	// The script's declarations run through the facade, as `aggview -exec`
	// runs them, so the linter refuses what the system refuses.
	sys := aggview.New()
	var queries, labels []string
	qn := 0
	for _, st := range stmts {
		switch x := st.(type) {
		case *sqlparser.CreateTable:
			if _, err := sys.ExecContext(ctx, x); err != nil {
				add(Diagnostic{Check: buildCheck(err, "invalid-table"), Severity: Error, Message: err.Error()})
			}
		case *sqlparser.CreateView:
			if _, err := sys.ExecContext(ctx, x); err != nil {
				add(Diagnostic{View: x.Name, Check: buildCheck(err, "invalid-statement"), Severity: Error, Message: err.Error()})
				continue
			}
			res.Views++
		case *sqlparser.QueryStatement:
			qn++
			label := fmt.Sprintf("query #%d", qn)
			sql := x.Query.SQL()
			if _, err := sys.Parse(sql); err != nil {
				add(Diagnostic{
					Query: label, Check: buildCheck(err, "invalid-statement"), Severity: Error,
					Message: fmt.Sprintf("%s does not build: %v", label, err),
				})
				continue
			}
			res.Queries++
			queries, labels = append(queries, sql), append(labels, label)
		case *sqlparser.Insert, *sqlparser.Delete, *sqlparser.Update:
			// Data changes carry no rewriting invariants; skip.
		default:
			add(Diagnostic{
				Check: "unknown-statement", Severity: Error,
				Message: fmt.Sprintf("unsupported statement %T", st),
			})
		}
	}

	for _, v := range sys.Views.All() {
		lintView(v, add)
	}

	if res.Views == 0 {
		return res
	}
	for i, sql := range queries {
		us, err := sys.Usability(ctx, sql)
		if err != nil {
			add(Diagnostic{
				Query: labels[i], Check: "usability", Severity: Error,
				Message: fmt.Sprintf("usability analysis of %s did not finish: %v", labels[i], err),
			})
			break
		}
		for _, u := range us {
			d := Diagnostic{View: u.View, Query: labels[i], Check: "usability", Severity: Info}
			if u.Usable {
				d.Message = fmt.Sprintf("view %s answers %s (%d mapping(s))", u.View, labels[i], u.Mappings)
			} else {
				d.Message = fmt.Sprintf("view %s cannot answer %s: %s", u.View, labels[i], strings.Join(u.Failures, "; "))
			}
			add(d)
		}
	}
	return res
}

// buildCheck classifies a declaration's or a query's error into a
// stable check name, fallback for an error of no kind it names.
func buildCheck(err error, fallback string) string {
	var dup *ir.DuplicateGroupByError
	var taken *aggview.NameTakenError
	switch {
	case errors.As(err, &dup):
		return "duplicate-group-by"
	case errors.As(err, &taken):
		return "name-taken"
	}
	return fallback
}

// lintView runs the view-local hazard checks on one built view.
func lintView(v *ir.ViewDef, add func(Diagnostic)) {
	def := v.Def
	isAgg := def.IsAggregationQuery()

	// An AVG(C) is re-aggregated over coarser groups as the sum of the
	// view's SUM(C) over the sum of its COUNT: the view must export both.
	hasCount, sums := false, map[ir.ColID]bool{}
	var avgs []ir.Expr
	for _, it := range def.Select {
		if ag, ok := it.Expr.(*ir.Agg); ok {
			switch cr, _ := ag.Arg.(*ir.ColRef); {
			case ag.Func == ir.AggCount:
				hasCount = true
			case ag.Func == ir.AggSum && cr != nil:
				sums[cr.Col] = true
			case ag.Func == ir.AggAvg:
				avgs = append(avgs, ag.Arg)
			}
		}
	}
	unbacked := len(avgs) > 0 && !hasCount
	for _, arg := range avgs {
		cr, ok := arg.(*ir.ColRef)
		unbacked = unbacked || !ok || !sums[cr.Col]
	}

	switch {
	case isAgg && unbacked:
		add(Diagnostic{
			View: v.Name, Check: "avg-without-count", Severity: Warn,
			Message: fmt.Sprintf("view %s exposes an AVG without the SUM of its column and a COUNT column beside it: AVG is re-aggregated over coarser groups as SUM/COUNT of the view's sums and counts, so the view answers neither that SUM nor that AVG over coarser groups, and without COUNT condition C4' cannot recover tuple multiplicities", v.Name),
		})
	case isAgg && !hasCount:
		add(Diagnostic{
			View: v.Name, Check: "no-count-column", Severity: Warn,
			Message: fmt.Sprintf("aggregation view %s carries no COUNT column: condition C4' cannot recover tuple multiplicities, so COUNT/AVG queries and coarser re-groupings over the view are rejected; add COUNT(...) to the view output", v.Name),
		})
	}

	if isAgg && def.Distinct {
		add(Diagnostic{
			View: v.Name, Check: "distinct-aggregation-view", Severity: Warn,
			Message: fmt.Sprintf("view %s combines DISTINCT with grouping/aggregation: grouped results are already duplicate-free, and the DISTINCT marks the view as a set, blocking every multiset rewriting (Section 4.5)", v.Name),
		})
	}

	for _, g := range def.GroupBy {
		exposed := false
		for _, it := range def.Select {
			if cr, ok := it.Expr.(*ir.ColRef); ok && cr.Col == g {
				exposed = true
				break
			}
		}
		if !exposed {
			add(Diagnostic{
				View: v.Name, Check: "group-col-projected-out", Severity: Warn,
				Message: fmt.Sprintf("view %s groups by %s but projects it out: condition C2' needs the query's grouping columns among the view's outputs, so any query grouping on %s is rejected", v.Name, def.Col(g).Attr, def.Col(g).Attr),
			})
		}
	}
}
