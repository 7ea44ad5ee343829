package oracle

import (
	"context"
	"math/rand"
	"testing"

	"aggview/internal/core"
	"aggview/internal/ir"
	"aggview/internal/value"
)

// propertySeed fixes the suite's instance stream: failures print both
// the per-case seed and the shrunk script, so either replays the bug.
const propertySeed = 20260806

// TestOracleProperty is the bounded-budget property suite: every
// rewriting of every generated instance must be multiset-equivalent to
// the direct answer at every worker count. On failure it shrinks the
// case and prints a replayable SQL script.
func TestOracleProperty(t *testing.T) {
	trials := 500
	if testing.Short() {
		trials = 120
	}
	runPropertySuite(t, trials, Options{})
}

// TestOraclePropertyPaperFaithful repeats a smaller sweep under the
// paper-faithful rewriter configuration (Va constructions, no
// arithmetic inside aggregates).
func TestOraclePropertyPaperFaithful(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 50
	}
	runPropertySuite(t, trials, Options{PaperFaithful: true})
}

func runPropertySuite(t *testing.T, trials int, opt Options) {
	ctx := context.Background()
	t.Helper()
	rng := rand.New(rand.NewSource(propertySeed))
	rewritings := 0
	for trial := 0; trial < trials; trial++ {
		c := Generate(rng, GenOptions{})
		out, err := CheckContext(ctx, c, opt)
		if err != nil {
			t.Fatalf("trial %d: generated case rejected (generator bug):\n%s\nerror: %v", trial, c.Script(), err)
		}
		rewritings += out.Rewritings
		if !out.OK() {
			min := ShrinkContext(ctx, c, opt)
			t.Fatalf("trial %d: equivalence violation\n%s\nminimal repro script:\n%s",
				trial, out.Violations[0].String(), min.Script())
		}
	}
	// The suite is only meaningful if the generator regularly produces
	// instances the rewriter can act on.
	if rewritings < trials/5 {
		t.Fatalf("only %d rewritings over %d trials: generator bias lost its teeth", rewritings, trials)
	}
	t.Logf("oracle: %d rewritings verified over %d instances", rewritings, trials)
}

// tamperDropResidual deletes the last WHERE predicate of the rewritten
// query — undoing part of step S3 (the residual conditions kept after
// view incorporation).
func tamperDropResidual(r *core.Rewriting) {
	if len(r.Query.Where) > 0 {
		r.Query = cloneQuery(r.Query)
		r.Query.Where = r.Query.Where[:len(r.Query.Where)-1]
	}
}

// tamperSwapAgg replaces the first SUM or COUNT in the rewritten select
// list with MAX — breaking the step-S4 aggregate reconstruction.
func tamperSwapAgg(r *core.Rewriting) {
	q := cloneQuery(r.Query)
	for i, it := range q.Select {
		if a, ok := it.Expr.(*ir.Agg); ok && (a.Func == ir.AggSum || a.Func == ir.AggCount) {
			q.Select[i].Expr = &ir.Agg{Func: ir.AggMax, Arg: a.Arg, Star: a.Star}
			r.Query = q
			return
		}
	}
}

func cloneQuery(q *ir.Query) *ir.Query { return q.Clone() }

// TestOracleCatchesInjectedFaults deliberately breaks a rewrite step on
// every emitted rewriting and asserts the checker flags it, the
// shrinker produces a smaller case that still fails, and the shrunk
// script replays to a failing case. This is the end-to-end proof the
// oracle has teeth.
func TestOracleCatchesInjectedFaults(t *testing.T) {
	ctx := context.Background()
	faults := []struct {
		name   string
		tamper func(*core.Rewriting)
	}{
		{"drop-residual-S3", tamperDropResidual},
		{"swap-aggregate-S4", tamperSwapAgg},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			opt := Options{Tamper: fault.tamper}
			rng := rand.New(rand.NewSource(propertySeed + 1))
			for trial := 0; trial < 400; trial++ {
				c := Generate(rng, GenOptions{})
				out, err := CheckContext(ctx, c, opt)
				if err != nil || out.OK() {
					continue // fault not triggered by this instance
				}
				min := ShrinkContext(ctx, c, opt)
				if size(min) > size(c) {
					t.Fatalf("shrinking grew the case: %d -> %d", size(c), size(min))
				}
				script := min.Script()
				replayed, err := Replay(script)
				if err != nil {
					t.Fatalf("shrunk script does not replay:\n%s\nerror: %v", script, err)
				}
				rout, err := CheckContext(ctx, replayed, opt)
				if err != nil {
					t.Fatalf("replayed case rejected:\n%s\nerror: %v", script, err)
				}
				if rout.OK() {
					t.Fatalf("replayed case no longer fails:\n%s", script)
				}
				t.Logf("fault %s caught at trial %d; shrunk script:\n%s", fault.name, trial, script)
				return
			}
			t.Fatalf("fault %s never caught in 400 trials: oracle is blind to it", fault.name)
		})
	}
}

// size measures a case for shrink-monotonicity assertions.
func size(c *Case) int {
	n := len(c.Views) + len(c.Query.Select) + len(c.Query.Where) + len(c.Query.Having)
	for _, t := range c.Tables {
		n += 1 + len(t.Rows)
	}
	return n
}

// TestScriptRoundTrip checks Script/Replay is lossless for the
// generator's whole output distribution.
func TestScriptRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		c := Generate(rng, GenOptions{})
		script := c.Script()
		back, err := Replay(script)
		if err != nil {
			t.Fatalf("trial %d: script does not replay:\n%s\nerror: %v", trial, script, err)
		}
		if got := back.Script(); got != script {
			t.Fatalf("trial %d: round trip not stable:\n--- first\n%s\n--- second\n%s", trial, script, got)
		}
	}
}

// TestShrinkReducesRows pins the row-shrinking machinery on a synthetic
// always-failing predicate (a Tamper that clobbers results makes every
// rewriting-bearing case fail), asserting the minimized case is much
// smaller than the original.
func TestShrinkReducesRows(t *testing.T) {
	ctx := context.Background()
	opt := Options{Tamper: func(r *core.Rewriting) {
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
		c := Generate(rng, GenOptions{MaxRows: 40})
		out, err := CheckContext(ctx, c, opt)
		if err != nil || out.OK() {
			continue
		}
		// The tamper empties every rewriting, so any nonempty direct
		// answer fails; the minimal repro needs very few rows.
		min := ShrinkContext(ctx, c, opt)
		total := 0
		for _, tb := range min.Tables {
			total += len(tb.Rows)
		}
		if total > 4 {
			t.Fatalf("shrunk case still has %d rows:\n%s", total, min.Script())
		}
		if out, err := CheckContext(ctx, min, opt); err != nil || out.OK() {
			t.Fatalf("shrunk case no longer fails:\n%s", min.Script())
		}
		return
	}
	t.Skip("no instance triggered the synthetic fault (generator drift)")
}
