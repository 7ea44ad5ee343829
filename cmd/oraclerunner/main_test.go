package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"aggview/internal/analysis/irlint"
	"aggview/internal/constraints"
	"aggview/internal/core"
	"aggview/internal/ir"
	"aggview/internal/obs"
	"aggview/internal/oracle"
	"aggview/internal/report"
	"aggview/internal/value"
)

// TestFailureCarriesLint forces violations with a result-clobbering
// Tamper (every rewriting gains WHERE 1 = 2, the same synthetic fault
// the oracle's shrink tests use) and asserts the failure records the
// runner would report carry the IR linter's diagnostics for the
// shrunken script, and that a report carrying such a row, with its
// failure-time metrics and closure-cache state, reads back strictly with
// a failing verdict.
func TestFailureCarriesLint(t *testing.T) {
	ctx := context.Background()
	opt := oracle.Options{Metrics: obs.NewMetrics(), Tamper: func(r *core.Rewriting) {
		q := r.Query.Clone()
		q.Where = append(q.Where, ir.Pred{
			Op: ir.OpEq,
			L:  ir.ConstTerm(value.Int(1)),
			R:  ir.ConstTerm(value.Int(2)),
		})
		r.Query = q
	}}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		c := oracle.Generate(rng, oracle.GenOptions{MaxRows: 40})
		out, err := oracle.CheckContext(ctx, c, opt)
		if err != nil || out.OK() {
			continue
		}
		min := oracle.ShrinkContext(ctx, c, opt)
		f := failure(ctx, 7, trial, &out.Violations[0], min)

		if f.Seed != 7 || f.Trial != trial || f.Script != min.Script() {
			t.Fatalf("failure record mismatch: %+v", f)
		}
		if len(f.Lint) == 0 {
			t.Fatalf("failure should carry lint diagnostics:\n%s", f.Script)
		}
		usability := 0
		for _, d := range f.Lint {
			if d.File != "shrunk.sql" {
				t.Fatalf("diagnostic not attributed to the shrunk script: %+v", d)
			}
			if d.Check == "usability" {
				usability++
			}
			if d.Severity == irlint.Error {
				t.Fatalf("a replayable shrunk script must build cleanly: %+v", d)
			}
		}
		// The shrunk case keeps at least the view the violating
		// rewriting used and its query, so usability records exist.
		if usability == 0 {
			t.Fatalf("expected usability records, got %+v", f.Lint)
		}

		atFailure, closure := opt.Metrics.Snapshot(), constraints.CloseCacheSnapshot()
		f.Metrics, f.Closure = &atFailure, &closure
		rep := report.New[failureRow](oracleTool)
		rep.Rows = append(rep.Rows, f)
		path := filepath.Join(t.TempDir(), "oracle.json")
		if err := finish(rep, path); err == nil {
			t.Fatal("a report with a violation should fail")
		}
		back, err := report.Read[failureRow](path, oracleTool)
		if err != nil {
			t.Fatal(err)
		}
		if back.Verdict != "fail" || len(back.Rows) != 1 || back.Rows[0].Metrics == nil || back.Rows[0].Closure == nil {
			t.Fatalf("failing report lost its row: %+v", back)
		}
		return
	}
	t.Skip("no instance triggered the synthetic fault (generator drift)")
}

// TestSoakReports runs a short soak in each mode and reads the written
// report back strictly: a clean soak passes with no rows and its tallies
// as counts, the select-project forms of group-preserving rewritings
// among the rewritings checked.
func TestSoakReports(t *testing.T) {
	ctx := context.Background()
	gen := oracle.GenOptions{MultiChunkEvery: 16}
	dir := t.TempDir()

	path := filepath.Join(dir, "oracle.json")
	if err := run(ctx, "1", 20, gen, 0, false, true, false, path, "", false); err != nil {
		t.Fatal(err)
	}
	rep, err := report.Read[failureRow](path, oracleTool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "pass" || len(rep.Rows) != 0 || rep.Counts["instances"] != 20 || len(rep.Seeds) != 1 {
		t.Fatalf("oracle report: verdict %s, %d rows, seeds %v, counts %v", rep.Verdict, len(rep.Rows), rep.Seeds, rep.Counts)
	}
	if _, ok := rep.Counts["closure_cache.hits"]; !ok {
		t.Fatalf("oracle report lacks closure_cache.hits: %v", rep.Counts)
	}
	if rep.Counts["rewritings.group_preserving"] == 0 {
		t.Fatalf("no rewriting's select-project form was checked: %v", rep.Counts)
	}

	path = filepath.Join(dir, "mutate.json")
	if err := runMutate(ctx, "21", 10, gen, 0, true, path, "", false); err != nil {
		t.Fatal(err)
	}
	rep, err = report.Read[failureRow](path, mutateTool)
	if err != nil {
		t.Fatal(err)
	}
	modes := int64(0)
	for name, n := range rep.Counts {
		if strings.HasPrefix(name, "mode.") {
			modes += n
		}
	}
	if rep.Verdict != "pass" || len(rep.Rows) != 0 || rep.Counts["trials"] != 10 || modes == 0 {
		t.Fatalf("mutate report: verdict %s, %d rows, counts %v", rep.Verdict, len(rep.Rows), rep.Counts)
	}
	if _, err := report.Read[failureRow](path, oracleTool); err == nil {
		t.Fatal("a mutation report read as an oracle report")
	}
}
