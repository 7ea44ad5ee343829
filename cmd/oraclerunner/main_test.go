package main

import (
	"context"
	"math/rand"
	"testing"

	"aggview/internal/benchjson"
	"aggview/internal/core"
	"aggview/internal/ir"
	"aggview/internal/oracle"
	"aggview/internal/value"
)

// TestFailureCarriesLint forces violations with a result-clobbering
// Tamper (every rewriting gains WHERE 1 = 2, the same synthetic fault
// the oracle's shrink tests use) and asserts the failure records the
// runner would report carry the IR linter's diagnostics for the
// shrunken script.
func TestFailureCarriesLint(t *testing.T) {
	ctx := context.Background()
	opt := oracle.Options{Tamper: func(r *core.Rewriting) {
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
			if d.Severity == benchjson.LintError {
				t.Fatalf("a replayable shrunk script must build cleanly: %+v", d)
			}
		}
		// The shrunk case keeps at least the view the violating
		// rewriting used and its query, so usability records exist.
		if usability == 0 {
			t.Fatalf("expected usability records, got %+v", f.Lint)
		}
		return
	}
	t.Skip("no instance triggered the synthetic fault (generator drift)")
}
