package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"aggview/internal/budget"
	"aggview/internal/faultinject"
	"aggview/internal/ir"
	"aggview/internal/obs"
)

// ctxFixture builds a database large enough that every kernel crosses
// the pollBatchRows boundary at least once, plus a view so resolve and
// nested materialization are exercised.
func ctxFixture(t *testing.T) (*DB, *ir.Registry, ir.SchemaSource) {
	t.Helper()
	db := NewDB()
	r := NewRelation("A", "B")
	for i := 0; i < 10000; i++ {
		r.Add(iv(int64(i%13)), iv(int64(i)))
	}
	db.Put("R1", r)
	s := NewRelation("C", "D")
	for i := 0; i < 5000; i++ {
		s.Add(iv(int64(i%13)), iv(int64(i%97)))
	}
	db.Put("R2", s)
	// Dim's keys are distinct, so a join laying it out is a lookup.
	d := NewRelation("K", "L")
	for i := 0; i < 5000; i++ {
		d.Add(iv(int64(i)), iv(int64(i%7)))
	}
	db.Put("Dim", d)

	tables := ir.MapSource{"R1": {"A", "B"}, "R2": {"C", "D"}, "Dim": {"K", "L"}}
	reg := ir.NewRegistry()
	vd, err := ir.NewViewDef("VSum", ir.MustBuild("SELECT A, SUM(B) FROM R1 GROUP BY A", tables))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(vd); err != nil {
		t.Fatal(err)
	}
	return db, reg, ir.MultiSource{tables, reg}
}

func ctxQueries(t *testing.T, source ir.SchemaSource) []*ir.Query {
	t.Helper()
	return []*ir.Query{
		ir.MustBuild("SELECT A, B FROM R1 WHERE B >= 100", source),
		ir.MustBuild("SELECT A, SUM(B), COUNT(B) FROM R1 GROUP BY A", source),
		ir.MustBuild("SELECT r.A, s.D FROM R1 r, R2 s WHERE r.A = s.C AND r.B < 500", source),
		ir.MustBuild("SELECT A, sum_B FROM VSum WHERE sum_B > 0", source),
		// R1's filter keeps 5000 rows, tying Dim's 5000: Dim, the incoming
		// table, is laid out and R1 is walked through its selection, every
		// row matching one Dim row.
		ir.MustBuild("SELECT r.B, d.L FROM R1 r, Dim d WHERE r.A = d.K AND r.B >= 5000", source),
	}
}

func TestExecContextPreCanceled(t *testing.T) {
	db, reg, source := ctxFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range ctxQueries(t, source) {
		ev := NewEvaluator(db, reg)
		out, err := ev.ExecContext(ctx, q)
		if out != nil {
			t.Fatalf("canceled exec returned a partial relation: %v", out)
		}
		if !budget.IsCanceled(err) {
			t.Fatalf("want *budget.Canceled, got %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Canceled must unwrap to context.Canceled: %v", err)
		}
	}
}

func TestExecContextDeadlineExceeded(t *testing.T) {
	db, reg, source := ctxFixture(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q := ctxQueries(t, source)[1]
	out, err := NewEvaluator(db, reg).ExecContext(ctx, q)
	if out != nil || !budget.IsCanceled(err) {
		t.Fatalf("want Canceled on expired deadline, got out=%v err=%v", out, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline expiry must unwrap to context.DeadlineExceeded: %v", err)
	}
}

func TestExecContextRowBudget(t *testing.T) {
	db, reg, source := ctxFixture(t)
	q := ctxQueries(t, source)[1]

	// A tiny budget trips with a typed Exceeded.
	m := budget.NewMeter(budget.Limits{MaxRows: 100})
	out, err := NewEvaluator(db, reg).ExecContext(budget.WithMeter(context.Background(), m), q)
	if out != nil {
		t.Fatalf("budget-tripped exec returned a partial relation")
	}
	var e *budget.Exceeded
	if !errors.As(err, &e) || e.Resource != "rows" || e.Limit != 100 {
		t.Fatalf("want rows Exceeded with limit 100, got %v", err)
	}

	// A generous budget succeeds with the exact unbudgeted result.
	want, err := NewEvaluator(db, reg).ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	m = budget.NewMeter(budget.Limits{MaxRows: 1 << 30})
	got, err := NewEvaluator(db, reg).ExecContext(budget.WithMeter(context.Background(), m), q)
	if err != nil {
		t.Fatalf("generous budget tripped: %v", err)
	}
	if !ResultsEqualBag(got, want) {
		t.Fatal("budgeted result differs from unbudgeted result")
	}
	if m.Rows() == 0 {
		t.Fatal("meter charged no rows")
	}
}

// TestExecContextBudgetCoversViews pins that rows spent materializing a
// referenced view draw from the same budget pool as the outer query, and
// that an aborted materialization — by budget, by a cancellation
// injected mid-fold or by an injected storage fault — is not memoized:
// on one evaluator the first call fails with the typed error, and the
// second runs the materialization again and answers what a fresh
// evaluator answers.
func TestExecContextBudgetCoversViews(t *testing.T) {
	db, reg, source := ctxFixture(t)
	q := ir.MustBuild("SELECT A, sum_B FROM VSum", source)
	want, err := NewEvaluator(db, reg).ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		abort func(ev *Evaluator) (context.Context, func()) // arms the failing call
		typed func(error) bool
	}{
		{"budget", func(*Evaluator) (context.Context, func()) {
			// The view alone folds 10000 R1 rows, so a 5000-row budget
			// trips inside the nested materialization.
			m := budget.NewMeter(budget.Limits{MaxRows: 5000})
			return budget.WithMeter(context.Background(), m), func() {}
		}, budget.IsExceeded},
		{"canceled", func(*Evaluator) (context.Context, func()) {
			// Fires 2049 rows in: inside the view's pass over R1's 10000.
			return faultinject.New(faultinject.SiteRow, 2049).Arm(context.Background())
		}, budget.IsCanceled},
		{"injected fault", func(*Evaluator) (context.Context, func()) {
			// The first Scan misses (VSum is a view); the second, of R1
			// inside the materialization, fails.
			return faultinject.Failing(2).Arm(context.Background())
		}, faultinject.IsInjected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev := NewEvaluator(db, reg)
			ctx, done := tc.abort(ev)
			_, err := ev.ExecContext(ctx, q)
			done()
			if !tc.typed(err) || !strings.Contains(fmt.Sprint(err), "materializing view VSum") {
				t.Fatalf("want a typed abort inside the materialization, got %v", err)
			}
			got, err := ev.ExecContext(context.Background(), q)
			if err != nil {
				t.Fatalf("evaluator poisoned by an aborted materialization: %v", err)
			}
			if !ResultsEqualBag(got, want) {
				t.Fatal("post-abort result differs from a fresh evaluator's")
			}
		})
	}
}

// TestExecContextBudgetWorkerIndependent pins that whether a query trips
// its row budget — and the error value when it does — is independent of
// the Workers knob, since per-kernel charge totals are fixed by input
// size.
func TestExecContextBudgetWorkerIndependent(t *testing.T) {
	db, reg, source := ctxFixture(t)
	q := ctxQueries(t, source)[2]
	for _, limit := range []int64{1000, 20000, 1 << 30} {
		var refErr error
		var refOut *Relation
		for i, workers := range []int{1, 0, 4} {
			ev := NewEvaluator(db, reg)
			ev.Workers = workers
			m := budget.NewMeter(budget.Limits{MaxRows: limit})
			out, err := ev.ExecContext(budget.WithMeter(context.Background(), m), q)
			if i == 0 {
				refErr, refOut = err, out
				continue
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("limit %d: workers=%d err=%v, workers=1 err=%v", limit, workers, err, refErr)
			}
			if err != nil {
				if err.Error() != refErr.Error() {
					t.Fatalf("limit %d: error value differs across workers: %q vs %q", limit, err, refErr)
				}
				continue
			}
			if !ResultsEqualBag(out, refOut) {
				t.Fatalf("limit %d: result differs across workers", limit)
			}
		}
	}
}

// TestExecContextFaultInjection sweeps cancellation injection across the
// row and cache sites and asserts the harness contract: every run
// returns either the exact correct bag or a typed Canceled error —
// never a partial relation, a panic, or an unexpected error kind.
func TestExecContextFaultInjection(t *testing.T) {
	db, reg, source := ctxFixture(t)
	queries := ctxQueries(t, source)
	wants := make([]*Relation, len(queries))
	for i, q := range queries {
		var err error
		wants[i], err = NewEvaluator(db, reg).ExecContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
	}
	ks := []int64{1, 2, 100, 1024, 1025, 4096, 10000, 40000}
	if testing.Short() {
		ks = []int64{1, 1024, 10000}
	}
	for _, site := range []faultinject.Site{faultinject.SiteRow, faultinject.SiteCache} {
		for _, k := range ks {
			for _, workers := range []int{1, 0} {
				in := faultinject.New(site, k)
				ctx, cancel := in.Arm(context.Background())
				ev := NewEvaluator(db, reg)
				ev.Workers = workers
				for i, q := range queries {
					out, err := ev.ExecContext(ctx, q)
					if err != nil {
						if !budget.IsCanceled(err) {
							t.Fatalf("site=%s k=%d workers=%d q=%d: non-typed error %v", site, k, workers, i, err)
						}
						if out != nil {
							t.Fatalf("site=%s k=%d workers=%d q=%d: error with partial relation", site, k, workers, i)
						}
						continue
					}
					if !ResultsEqualBag(out, wants[i]) {
						t.Fatalf("site=%s k=%d workers=%d q=%d: result differs under injection", site, k, workers, i)
					}
				}
				cancel()
			}
		}
	}
}

// TestExecContextNoGoroutineLeak cancels mid-flight executions at both
// worker settings of the oracle's default matrix and asserts the pools
// drain: no goroutine outlives its ExecContext call.
func TestExecContextNoGoroutineLeak(t *testing.T) {
	db, reg, source := ctxFixture(t)
	queries := ctxQueries(t, source)
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 0} {
		for _, k := range []int64{1, 1024, 4096} {
			ev := NewEvaluator(db, reg)
			ev.Workers = workers
			in := faultinject.New(faultinject.SiteRow, k)
			ctx, cancel := in.Arm(context.Background())
			for _, q := range queries {
				_, _ = ev.ExecContext(ctx, q)
			}
			cancel()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLookupJoinCharges pins what ctxQueries' lookup join charges, as
// the counting-sort join charged it before the lookup path existed: the
// rows every site saw, all the bytes held, and the bytes charged at
// join — its pairs and R1's selection composed through them — which a
// memory budget just under the total finds at join and one just under
// the join's share finds before it. The totals repeat at every worker
// count.
func TestLookupJoinCharges(t *testing.T) {
	db, reg, source := ctxFixture(t)
	q := ctxQueries(t, source)[4]
	// Measured before the lookup path existed. Rows: Dim's 5000 and the
	// 5904 of R1's chunks that its filter cannot skip at scan, then 5000
	// each at join.build, join.probe and project. Bytes: the two table
	// images, R1's 5000-row selection and 12 B a pair at join.
	const rows, mem, join = 25904, 320000, 60000
	for _, workers := range []int{1, 0} {
		m := budget.NewMeter(budget.Limits{MaxRows: 1 << 40, MaxMemBytes: 1 << 40})
		ev := NewEvaluator(db, reg)
		ev.Workers, ev.Metrics = workers, obs.NewMetrics()
		if _, err := ev.ExecContext(budget.WithMeter(context.Background(), m), q); err != nil {
			t.Fatal(err)
		}
		if n := ev.Metrics.Counter("engine.join.lookups").Load(); n != 1 {
			t.Fatalf("workers %d: engine.join.lookups = %d, want 1", workers, n)
		}
		if m.Rows() != rows || m.Mem() != mem {
			t.Fatalf("workers %d: charged %d rows and %d bytes, want %d and %d", workers, m.Rows(), m.Mem(), rows, mem)
		}
	}
	tripsAt := func(limit int64, join bool) {
		t.Helper()
		m := budget.NewMeter(budget.Limits{MaxMemBytes: limit})
		_, err := NewEvaluator(db, reg).ExecContext(budget.WithMeter(context.Background(), m), q)
		var e *budget.Exceeded
		if !errors.As(err, &e) || e.Resource != "memory" || (e.Site == "join") != join {
			t.Fatalf("limit %d: got %v, want a memory Exceeded at join: %v", limit, err, join)
		}
	}
	tripsAt(mem-1, true)
	tripsAt(mem-join, true)
	tripsAt(mem-join-1, false)
}
