// Package oracle implements differential testing of the rewriter and of
// view maintenance: seeded generators of random schemas, table contents,
// view definitions and step sequences (inserts, deletes, updates and
// queries); one checker that tracks every view, walks the steps, holds
// every maintained view to its definition after each mutation and
// executes each query directly and through every rewriting the rewriter
// emits, asserting multiset-equal results at several worker counts; and
// a shrinker reducing any violation to a minimal SQL script that replays
// the failure.
//
// Everything a case needs travels as SQL text plus literal rows, so a
// failing case prints as a self-contained script (CREATE TABLE / INSERT
// / CREATE VIEW setup, then INSERT / DELETE / UPDATE / SELECT steps)
// that Replay parses back verbatim.
package oracle

import (
	"context"
	"fmt"
	"strings"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/value"
)

// TableSpec declares one base table and its full contents.
type TableSpec struct {
	Name string
	Cols []string
	Key  []string // optional key columns (unique over Rows when set)
	Rows [][]value.Value
}

// SQL renders the CREATE TABLE statement.
func (t *TableSpec) SQL() string {
	s := "CREATE TABLE " + t.Name + "(" + strings.Join(t.Cols, ", ") + ")"
	if len(t.Key) > 0 {
		s += " KEY(" + strings.Join(t.Key, ", ") + ")"
	}
	return s
}

// Relation materializes the rows as an engine relation.
func (t *TableSpec) Relation() *engine.Relation {
	rel := engine.NewRelation(t.Cols...)
	for _, row := range t.Rows {
		rel.Add(row...)
	}
	return rel
}

// QuerySpec is a single-block query kept as clause strings: the
// generator and the shrinker both manipulate clause lists, and the SQL
// round-trips through the parser unchanged.
type QuerySpec struct {
	Distinct bool
	Select   []string
	From     []string
	Where    []string // conjuncts
	GroupBy  []string
	Having   []string // conjuncts
}

// SQL renders the query.
func (q *QuerySpec) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(strings.Join(q.Select, ", "))
	b.WriteString(" FROM " + strings.Join(q.From, ", "))
	if len(q.Where) > 0 {
		b.WriteString(" WHERE " + strings.Join(q.Where, " AND "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(q.GroupBy, ", "))
	}
	if len(q.Having) > 0 {
		b.WriteString(" HAVING " + strings.Join(q.Having, " AND "))
	}
	return b.String()
}

// clone deep-copies the clause lists.
func (q *QuerySpec) clone() QuerySpec {
	return QuerySpec{
		Distinct: q.Distinct,
		Select:   append([]string{}, q.Select...),
		From:     append([]string{}, q.From...),
		Where:    append([]string{}, q.Where...),
		GroupBy:  append([]string{}, q.GroupBy...),
		Having:   append([]string{}, q.Having...),
	}
}

// ViewSpec names a view definition. Cols, when set, are explicit
// output column names (the CREATE VIEW V(a, b) AS form server scripts
// emit); empty means the engine derives them from the SELECT items.
type ViewSpec struct {
	Name string
	Cols []string
	Def  QuerySpec
}

// SQL renders the CREATE VIEW statement.
func (v *ViewSpec) SQL() string {
	s := "CREATE VIEW " + v.Name
	if len(v.Cols) > 0 {
		s += "(" + strings.Join(v.Cols, ", ") + ")"
	}
	return s + " AS " + v.Def.SQL()
}

// Step kinds of a case.
const (
	StepInsert = "insert"
	StepDelete = "delete"
	StepUpdate = "update"
	StepQuery  = "query"
)

// Step is one step of a case: a mutation against a base table, or a
// query checked at that point of the history.
type Step struct {
	Kind  string
	Table string          // mutation target (insert/delete/update)
	Rows  [][]value.Value // insert rows
	Where string          // delete/update condition; "" = unconditional
	Set   string          // update SET clause body, e.g. "B = B + 1"
	Query *QuerySpec      // query steps only
}

// SQL renders the step as a script statement.
func (s *Step) SQL() string {
	switch s.Kind {
	case StepInsert:
		return insertSQL(s.Table, s.Rows)
	case StepDelete:
		out := "DELETE FROM " + s.Table
		if s.Where != "" {
			out += " WHERE " + s.Where
		}
		return out
	case StepUpdate:
		out := "UPDATE " + s.Table + " SET " + s.Set
		if s.Where != "" {
			out += " WHERE " + s.Where
		}
		return out
	case StepQuery:
		return s.Query.SQL()
	}
	return "-- unknown step " + s.Kind
}

// Case is one differential-test instance: a schema with initial
// contents, view definitions (every one tracked), and an ordered step
// sequence. The query oracle's instance is a case of one query step.
type Case struct {
	Tables []*TableSpec
	Views  []*ViewSpec
	Steps  []Step
}

// MultiChunk reports whether the case's largest base table spans at
// least three storage chunks, so that executing it crosses chunk
// boundaries in scans, selections and deltas.
func (c *Case) MultiChunk() bool {
	for _, t := range c.Tables {
		if len(t.Rows) >= engine.RowsSpanning(3) {
			return true
		}
	}
	return false
}

// Script renders the case as a replayable SQL script: each table with
// its contents as one INSERT right behind its CREATE TABLE, the views,
// then the steps in order.
func (c *Case) Script() string {
	var b strings.Builder
	for _, t := range c.Tables {
		b.WriteString(t.SQL() + ";\n")
		if len(t.Rows) > 0 {
			b.WriteString(insertSQL(t.Name, t.Rows) + ";\n")
		}
	}
	for _, v := range c.Views {
		b.WriteString(v.SQL() + ";\n")
	}
	for i := range c.Steps {
		b.WriteString(c.Steps[i].SQL() + ";\n")
	}
	return b.String()
}

func insertSQL(table string, rows [][]value.Value) string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + table + " VALUES ")
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String() // Value.String quotes strings
		}
		b.WriteString("(" + strings.Join(parts, ", ") + ")")
	}
	return b.String()
}

// Clone deep-copies the case, so the shrinker can mutate candidates
// freely.
func (c *Case) Clone() *Case {
	out := &Case{}
	for _, t := range c.Tables {
		out.Tables = append(out.Tables, &TableSpec{
			Name: t.Name,
			Cols: append([]string{}, t.Cols...),
			Key:  append([]string{}, t.Key...),
			Rows: cloneRows(t.Rows),
		})
	}
	for _, v := range c.Views {
		out.Views = append(out.Views, &ViewSpec{Name: v.Name, Cols: append([]string{}, v.Cols...), Def: v.Def.clone()})
	}
	for _, st := range c.Steps {
		st.Rows = cloneRows(st.Rows)
		if st.Query != nil {
			q := st.Query.clone()
			st.Query = &q
		}
		out.Steps = append(out.Steps, st)
	}
	return out
}

func cloneRows(rows [][]value.Value) [][]value.Value {
	var out [][]value.Value
	for _, row := range rows {
		out = append(out, append([]value.Value{}, row...))
	}
	return out
}

// CompileContext loads the case's setup into a fresh aggview.System:
// schema and view definitions, table contents, and every view tracked
// (maintained under writes, as aggserve keeps them). The steps are not
// applied. The tracking materializations honor ctx's cancellation,
// deadline and budget.
func (c *Case) CompileContext(ctx context.Context, opts aggview.Options) (*aggview.System, error) {
	sys := aggview.New()
	sys.Opts = opts
	for _, t := range c.Tables {
		if err := sys.Load(t.SQL()); err != nil {
			return nil, fmt.Errorf("oracle: table %s: %w", t.Name, err)
		}
	}
	for _, v := range c.Views {
		if err := sys.Load(v.SQL()); err != nil {
			return nil, fmt.Errorf("oracle: view %s: %w", v.Name, err)
		}
	}
	for _, t := range c.Tables {
		if err := sys.SetRelation(t.Name, t.Relation()); err != nil {
			return nil, fmt.Errorf("oracle: rows of %s: %w", t.Name, err)
		}
	}
	for _, v := range c.Views {
		if _, err := sys.TrackViewContext(ctx, v.Name); err != nil {
			return nil, fmt.Errorf("oracle: track %s: %w", v.Name, err)
		}
	}
	return sys, nil
}

// applyStep routes one mutation step through the production facade,
// converting a panic during maintenance into an error.
func applyStep(ctx context.Context, sys *aggview.System, st *Step) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	switch st.Kind {
	case StepInsert:
		return sys.InsertContext(ctx, st.Table, st.Rows...)
	case StepDelete:
		_, err = sys.DeleteContext(ctx, st.Table, st.Where)
	case StepUpdate:
		_, err = sys.UpdateContext(ctx, st.Table, st.Set, st.Where)
	default:
		err = fmt.Errorf("oracle: unknown mutation step kind %q", st.Kind)
	}
	return err
}
