// The explain subcommand surfaces the rewrite search's reasoning:
// `aggview explain [-trace] [-json report.json] [-data table=file.csv]
// script.sql` prints, per SELECT, the cost-annotated rewriting report
// and — with -trace — every candidate (query, view, mapping) the BFS
// analyzed, with its usability verdict (C1–C4 and the primed variants),
// wave number and dedup outcome. -json writes the machine-readable
// report.Report of traceRow; `aggview explain -replay report.json`
// re-reads a written report strictly (report.Read) and validates every
// row.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"aggview/internal/constraints"
	"aggview/internal/core"
	"aggview/internal/obs"
	"aggview/internal/report"
)

func runExplain(args []string) {
	fs := flag.NewFlagSet("aggview explain", flag.ExitOnError)
	trace := fs.Bool("trace", false, "print the rewrite-search trace: every candidate with its verdict")
	jsonOut := fs.String("json", "", "write the machine-readable trace report to this file (implies -trace)")
	replay := fs.String("replay", "", "validate a previously written trace report instead of running")
	paperFaithful := fs.Bool("paper-faithful", false, "restrict to the paper's original operations")
	var data dataFlags
	fs.Var(&data, "data", "load CSV data: table=file.csv (repeatable)")
	fs.Parse(args)

	if *replay != "" {
		if err := replayTrace(*replay, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: aggview explain [-trace] [-json report.json] [-data table=file.csv] script.sql")
		fs.PrintDefaults()
		os.Exit(2)
	}
	if err := explain(fs.Arg(0), data, *paperFaithful, *trace || *jsonOut != "", *jsonOut, os.Stdout); err != nil {
		fatal(err)
	}
}

// explainTool names the trace report's writer.
const explainTool = "aggview explain"

// traceRow is the full rewrite-search trace of one query: wave
// bookkeeping, every analyzed candidate in serial commit order and the
// per-view usability summary.
type traceRow struct {
	Query       string               `json:"query"`
	Waves       int                  `json:"waves"`
	Jobs        int                  `json:"jobs"`
	MaxFrontier int                  `json:"max_frontier"`
	Rewritings  int                  `json:"rewritings"`
	Views       []core.ViewUsability `json:"views"`
	Candidates  []obs.Candidate      `json:"candidates"`
}

// Validate checks the row's internal consistency: verdict membership,
// wave bounds and the accept/rewriting correspondence. A report that
// report.Read accepts and whose rows pass Validate carries a lossless
// trace.
func (t *traceRow) Validate() error {
	if t.Query == "" {
		return fmt.Errorf("trace row has no SQL")
	}
	accepts := 0
	for ci, c := range t.Candidates {
		switch c.Verdict {
		case obs.VerdictAccept:
			if c.Rewriting == "" {
				return fmt.Errorf("candidate %d accepted without a rewriting", ci)
			}
			if c.Reason == "" {
				accepts++
			}
		case obs.VerdictReject:
			if c.Reason == "" {
				return fmt.Errorf("candidate %d rejected without a reason", ci)
			}
		case obs.VerdictDedup:
		default:
			return fmt.Errorf("candidate %d has unknown verdict %q", ci, c.Verdict)
		}
		if c.Wave < 0 || c.Wave > t.Waves {
			return fmt.Errorf("candidate %d wave %d outside [0,%d]", ci, c.Wave, t.Waves)
		}
	}
	if accepts != t.Rewritings {
		return fmt.Errorf("lists %d rewritings but %d committed accepts", t.Rewritings, accepts)
	}
	return nil
}

// validateRows validates every row, naming the first inconsistent one.
func validateRows(rows []traceRow) error {
	for i := range rows {
		if err := rows[i].Validate(); err != nil {
			return fmt.Errorf("trace query %d: %w", i, err)
		}
	}
	return nil
}

// explain runs the rewriting report for each SELECT of the script and,
// when tracing, collects one traceRow per SELECT. A trace that fails
// validation is still written, with verdict fail, and returned as an
// error.
func explain(path string, data dataFlags, paperFaithful, trace bool, jsonOut string, out io.Writer) error {
	ctx := context.Background()
	s, queries, err := loadScriptSystem(ctx, path, data, paperFaithful)
	if err != nil {
		return err
	}
	constraints.ResetCloseCache()
	rep := report.New[traceRow](explainTool)
	rep.Notes = []string{path}
	for i, q := range queries {
		fmt.Fprintf(out, "-- query %d --\n", i+1)
		// One span per query; with -trace it keeps every candidate.
		sp := obs.NewSpan("", q)
		if trace {
			sp.RecordCandidates()
		}
		explained, err := s.Explain(obs.WithSpan(ctx, sp), q)
		if err != nil {
			return err
		}
		fmt.Fprint(out, explained)
		if !trace {
			fmt.Fprintln(out)
			continue
		}
		// s.Explain drove the search under the span; pair its record with
		// the per-view usability analysis.
		rec := sp.Snapshot()
		usability, err := s.Usability(ctx, q)
		if err != nil {
			return err
		}
		row := traceRow{
			Query:       q,
			Waves:       rec.Waves,
			Jobs:        rec.Jobs,
			MaxFrontier: rec.MaxFrontier,
			Views:       usability,
			Candidates:  rec.Candidates,
		}
		for _, c := range rec.Candidates {
			if c.Verdict == obs.VerdictAccept && c.Reason == "" {
				row.Rewritings++
			}
		}
		rep.Rows = append(rep.Rows, row)
		printTrace(out, &row)
		fmt.Fprintln(out)
	}
	if jsonOut == "" {
		return nil
	}
	cs := constraints.CloseCacheSnapshot()
	rep.Counts["closure_cache.hits"] = cs.Hits
	rep.Counts["closure_cache.misses"] = cs.Misses
	rep.Counts["closure_cache.evictions"] = cs.Evictions
	rep.Counts["closure_cache.size"] = int64(cs.Size)
	invalid := validateRows(rep.Rows)
	if invalid != nil {
		rep.Verdict = "fail"
		rep.Notes = append(rep.Notes, invalid.Error())
	}
	if err := rep.WriteFile(jsonOut); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace report written to %s (%d queries)\n", jsonOut, len(rep.Rows))
	return invalid
}

// printTrace renders one query's search trace for humans.
func printTrace(out io.Writer, row *traceRow) {
	fmt.Fprintf(out, "search trace: %d wave(s), %d job(s), peak frontier %d, %d rewriting(s)\n",
		row.Waves, row.Jobs, row.MaxFrontier, row.Rewritings)
	for _, u := range row.Views {
		verdict := "usable"
		if !u.Usable {
			verdict = "not usable"
		}
		fmt.Fprintf(out, "  view %s: %s (%d mapping(s))\n", u.View, verdict, u.Mappings)
		for _, f := range u.Failures {
			fmt.Fprintf(out, "    - %s\n", f)
		}
	}
	for _, c := range row.Candidates {
		line := fmt.Sprintf("  [wave %d] view %s: %s", c.Wave, c.View, c.Verdict)
		if c.Condition != "" {
			line += " (" + c.Condition + ")"
		}
		if c.Mapping != "" {
			line += " sigma{" + c.Mapping + "}"
		}
		if c.SetSemantics {
			line += " [set semantics]"
		}
		fmt.Fprintln(out, line)
		if c.Reason != "" {
			fmt.Fprintf(out, "      %s\n", c.Reason)
		}
	}
}

// replayTrace strictly re-reads a written trace report — unknown
// fields, another tool's report and a lossy round trip are errors — and
// verifies every row is internally consistent.
func replayTrace(path string, out io.Writer) error {
	rep, err := report.Read[traceRow](path, explainTool)
	if err != nil {
		return err
	}
	if err := validateRows(rep.Rows); err != nil {
		return err
	}
	candidates := 0
	for _, row := range rep.Rows {
		candidates += len(row.Candidates)
	}
	fmt.Fprintf(out, "trace %s replays cleanly: %d query(s), %d candidate(s), no loss\n",
		path, len(rep.Rows), candidates)
	return nil
}
