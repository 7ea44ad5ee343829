package oracle

import (
	"context"
	"math/rand"
	"testing"

	"aggview/internal/budget"
	"aggview/internal/core"
	"aggview/internal/faultinject"
	"aggview/internal/ir"
	"aggview/internal/value"
)

func TestCheckContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Generate(rng, GenOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := CheckContext(ctx, c, Options{})
	if out != nil {
		t.Fatal("canceled check returned a partial outcome")
	}
	if !budget.IsCanceled(err) {
		t.Fatalf("want typed Canceled, got %v", err)
	}
}

// TestOracleFaultInjectionPass soaks the harness contract over random
// instances: with cancellation injected at every site, each execution
// must produce either the exact correct bag or a clean typed Canceled —
// the pass reports any partial result, untyped error, or panic as a
// violation, and this suite demands zero of them.
func TestOracleFaultInjectionPass(t *testing.T) {
	var faults []faultinject.Spec
	for _, site := range faultinject.Sites {
		for _, k := range []int64{1, 7, 64} {
			faults = append(faults, faultinject.Spec{Site: site, K: k})
		}
	}
	opt := Options{Faults: faults}
	trials := 60
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(propertySeed + 2))
	runs := 0
	for trial := 0; trial < trials; trial++ {
		c := Generate(rng, GenOptions{})
		out, err := CheckContext(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("trial %d: generated case rejected:\n%s\nerror: %v", trial, c.Script(), err)
		}
		if !out.OK() {
			t.Fatalf("trial %d: fault-injection contract violated\n%s\nscript:\n%s",
				trial, out.Violations[0].String(), c.Script())
		}
		runs += out.FaultRuns
	}
	if runs == 0 {
		t.Fatal("fault pass never executed a run")
	}
	t.Logf("oracle: %d injected executions held the contract over %d instances", runs, trials)
}

// TestOracleStorageFaultPass soaks the error-injection contract: with a
// FaultStorage backend failing the k-th scan on, every execution must
// produce either the exact correct bag or a clean typed injected error —
// never a partial result. k=1 fails the very first scan (every plan
// aborts), larger k let some plans finish, so both arms of the contract
// are exercised.
func TestOracleStorageFaultPass(t *testing.T) {
	opt := Options{StorageFaults: []int64{1, 2, 4, 64}}
	trials := 40
	if testing.Short() {
		trials = 15
	}
	rng := rand.New(rand.NewSource(propertySeed + 3))
	runs := 0
	for trial := 0; trial < trials; trial++ {
		c := Generate(rng, GenOptions{})
		out, err := CheckContext(context.Background(), c, opt)
		if err != nil {
			t.Fatalf("trial %d: generated case rejected:\n%s\nerror: %v", trial, c.Script(), err)
		}
		if !out.OK() {
			t.Fatalf("trial %d: storage-fault contract violated\n%s\nscript:\n%s",
				trial, out.Violations[0].String(), c.Script())
		}
		runs += out.FaultRuns
	}
	if runs == 0 {
		t.Fatal("storage fault pass never executed a run")
	}
	t.Logf("oracle: %d storage-faulted executions held the contract over %d instances", runs, trials)
}

// tamperAlwaysFail appends a contradiction to every rewriting, so any
// rewriting-bearing case with a nonempty direct answer fails — a
// deterministic failure source for shrink tests.
func tamperAlwaysFail(r *core.Rewriting) {
	q := r.Query.Clone()
	q.Where = append(q.Where, ir.Pred{
		Op: ir.OpEq,
		L:  ir.ConstTerm(value.Int(1)),
		R:  ir.ConstTerm(value.Int(2)),
	})
	r.Query = q
}

// TestShrinkBudgetMonotonic pins the shrink budget's monotonicity: a
// larger budget never yields a larger repro. The pass and candidate
// orders are deterministic, so a bigger-budget run replays the smaller
// run's accept/reject sequence exactly and then keeps reducing, and
// every accepted reduction removes structure.
func TestShrinkBudgetMonotonic(t *testing.T) {
	ctx := context.Background()
	opt := Options{Tamper: tamperAlwaysFail}
	rng := rand.New(rand.NewSource(31))
	tested := 0
	for trial := 0; trial < 300 && tested < 3; trial++ {
		c := Generate(rng, GenOptions{MaxRows: 40})
		out, err := CheckContext(ctx, c, opt)
		if err != nil || out.OK() {
			continue
		}
		tested++
		prev := -1
		for _, b := range []int{1, 5, 25, 100, 400} {
			o := opt
			o.ShrinkBudget = b
			min := ShrinkContext(ctx, c, o)
			if rout, err := CheckContext(ctx, min, o); err != nil || rout.OK() {
				t.Fatalf("budget %d: shrunk case no longer fails:\n%s", b, min.Script())
			}
			s := size(min)
			if prev >= 0 && s > prev {
				t.Fatalf("budget %d grew the repro: size %d after %d at the smaller budget\n%s",
					b, s, prev, min.Script())
			}
			prev = s
		}
	}
	if tested == 0 {
		t.Skip("no instance triggered the synthetic fault (generator drift)")
	}
}
