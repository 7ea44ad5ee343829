// The explain subcommand surfaces the rewrite search's reasoning:
// `aggview explain [-trace] [-json report.json] [-data table=file.csv]
// script.sql` prints, per SELECT, the cost-annotated rewriting report
// and — with -trace — every candidate (query, view, mapping) the BFS
// analyzed, with its usability verdict (C1–C4 and the primed variants),
// wave number and dedup outcome. -json writes the machine-readable
// benchjson.TraceReport; `aggview explain -replay report.json`
// re-decodes a written report strictly and verifies it round-trips
// without loss.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"aggview/internal/benchjson"
	"aggview/internal/constraints"
	"aggview/internal/obs"
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

// explain runs the rewriting report for each SELECT of the script and,
// when tracing, collects a TraceReport (one TraceQuery per SELECT).
func explain(path string, data dataFlags, paperFaithful, trace bool, jsonOut string, out io.Writer) error {
	ctx := context.Background()
	s, queries, err := loadScriptSystem(ctx, path, data, paperFaithful)
	if err != nil {
		return err
	}
	constraints.ResetCloseCache()
	rep := benchjson.NewTrace()
	rep.File = path
	for i, q := range queries {
		fmt.Fprintf(out, "-- query %d --\n", i+1)
		// One span per query; with -trace it keeps every candidate.
		sp := obs.NewSpan("", q)
		if trace {
			sp.RecordCandidates()
		}
		report, err := s.Explain(obs.WithSpan(ctx, sp), q)
		if err != nil {
			return err
		}
		fmt.Fprint(out, report)
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
		tq := benchjson.TraceQuery{
			Query:       q,
			Waves:       rec.Waves,
			Jobs:        rec.Jobs,
			MaxFrontier: rec.MaxFrontier,
			Candidates:  rec.Candidates,
		}
		for _, c := range rec.Candidates {
			if c.Verdict == obs.VerdictAccept && c.Reason == "" {
				tq.Rewritings++
			}
		}
		for _, u := range usability {
			tq.Views = append(tq.Views, benchjson.TraceView{
				View: u.View, Mappings: u.Mappings, Usable: u.Usable, Failures: u.Failures,
			})
		}
		rep.Queries = append(rep.Queries, tq)
		printTrace(out, &tq)
		fmt.Fprintln(out)
	}
	if trace {
		cs := constraints.CloseCacheSnapshot()
		rep.Closure = &benchjson.CacheCounters{Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions, Size: cs.Size}
	}
	if jsonOut != "" {
		if err := rep.Validate(); err != nil {
			return err
		}
		if err := rep.WriteFile(jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace report written to %s (%d queries)\n", jsonOut, len(rep.Queries))
	}
	return nil
}

// printTrace renders one query's search trace for humans.
func printTrace(out io.Writer, tq *benchjson.TraceQuery) {
	fmt.Fprintf(out, "search trace: %d wave(s), %d job(s), peak frontier %d, %d rewriting(s)\n",
		tq.Waves, tq.Jobs, tq.MaxFrontier, tq.Rewritings)
	for _, u := range tq.Views {
		verdict := "usable"
		if !u.Usable {
			verdict = "not usable"
		}
		fmt.Fprintf(out, "  view %s: %s (%d mapping(s))\n", u.View, verdict, u.Mappings)
		for _, f := range u.Failures {
			fmt.Fprintf(out, "    - %s\n", f)
		}
	}
	for _, c := range tq.Candidates {
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

// replayTrace strictly re-decodes a written trace report and verifies
// it is internally consistent and loss-free under re-marshaling.
func replayTrace(path string, out io.Writer) error {
	rep, err := benchjson.ReadTrace(path)
	if err != nil {
		return err
	}
	if err := rep.Validate(); err != nil {
		return err
	}
	if err := rep.RoundTrips(); err != nil {
		return err
	}
	candidates := 0
	for _, q := range rep.Queries {
		candidates += len(q.Candidates)
	}
	fmt.Fprintf(out, "trace %s replays cleanly: %d query(s), %d candidate(s), no loss\n",
		path, len(rep.Queries), candidates)
	return nil
}
