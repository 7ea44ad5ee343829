package engine

import (
	"context"
	"errors"
	"testing"

	"aggview/internal/budget"
	"aggview/internal/faultinject"
	"aggview/internal/value"
)

// TestStorageFaultContract holds the engine to the I/O-error contract:
// under a failing injector whose k-th scan (and every later one) fails,
// every execution ends in either the exact correct bag or a clean typed
// *faultinject.Injected error — never a partial result and never an
// untyped failure.
func TestStorageFaultContract(t *testing.T) {
	db, reg, source := ctxFixture(t)
	for _, q := range ctxQueries(t, source) {
		want, err := NewEvaluator(db, reg).ExecContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sawError, sawSuccess := false, false
		for _, k := range []int64{1, 2, 3, 5, 100} {
			for _, workers := range []int{1, 0} {
				ev := NewEvaluator(db, reg)
				ev.Workers = workers
				ctx, cancel := faultinject.Failing(k).Arm(context.Background())
				got, err := ev.ExecContext(ctx, q)
				cancel()
				if err != nil {
					if !faultinject.IsInjected(err) {
						t.Fatalf("k=%d workers=%d: untyped error under storage fault: %v", k, workers, err)
					}
					if got != nil {
						t.Fatalf("k=%d workers=%d: partial result alongside the error", k, workers)
					}
					sawError = true
					continue
				}
				if !ResultsEqualBag(got, want) {
					t.Fatalf("k=%d workers=%d: result differs from the clean run", k, workers)
				}
				sawSuccess = true
			}
		}
		if !sawError {
			t.Fatalf("query %v: no countdown ever tripped (k=1 must fail the first scan)", q.Tables)
		}
		if !sawSuccess {
			t.Fatalf("query %v: even k=100 failed; the fixture issues fewer scans than that", q.Tables)
		}
	}
}

// TestStorageFaultNotMemoized pins that a view materialization aborted
// by a storage fault is not cached: the same evaluator succeeds on a
// context without the fault.
func TestStorageFaultNotMemoized(t *testing.T) {
	db, reg, source := ctxFixture(t)
	q := ctxQueries(t, source)[3] // reads VSum

	ev := NewEvaluator(db, reg)
	fctx, cancel := faultinject.Failing(1).Arm(context.Background())
	_, err := ev.ExecContext(fctx, q)
	cancel()
	if !faultinject.IsInjected(err) {
		t.Fatalf("want injected storage error, got %v", err)
	}
	got, err := ev.ExecContext(context.Background(), q) // the backend recovers
	if err != nil {
		t.Fatalf("recovered evaluator still failing: %v", err)
	}
	want, err := NewEvaluator(db, reg).ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !ResultsEqualBag(got, want) {
		t.Fatal("result after recovery differs from the clean run")
	}
}

// TestStorageFaultSharesCountdown pins what a server's fault window
// relies on: one failing injector on the contexts of operations over
// different stores lets each read its own store, and they fail
// together, on one countdown.
func TestStorageFaultSharesCountdown(t *testing.T) {
	a, b := NewDB(), NewDB()
	a.Put("T", NewRelation("x"))
	b.Put("T", NewRelation("x", "y"))
	in := faultinject.Failing(3)
	scan := func(db *DB) (*ColTable, error) {
		ev := NewEvaluator(db, nil)
		return ev.resolve(ev.newTask(faultinject.With(context.Background(), in)), "T")
	}
	if ct, err := scan(b); err != nil || len(ct.Attrs()) != 2 {
		t.Fatalf("first scan, over b: %v %v, want b's table", ct, err)
	}
	if ct, err := scan(a); err != nil || len(ct.Attrs()) != 1 {
		t.Fatalf("second scan, over a: %v %v, want a's table", ct, err)
	}
	for _, db := range []*DB{b, a, a} {
		if _, err := scan(db); !faultinject.IsInjected(err) {
			t.Fatalf("scan past the shared countdown returned %v, want an injected fault", err)
		}
	}
}

// TestResolveWithoutInjectorAllocatesNothing pins that the storage
// site costs a scan nothing when no injector rides the context.
func TestResolveWithoutInjectorAllocatesNothing(t *testing.T) {
	db := NewDB()
	db.Put("T", NewRelation("x"))
	ev := NewEvaluator(db, nil)
	tk := ev.newTask(context.Background())
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ev.resolve(tk, "T"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("resolve of a stored table allocated %.1f objects with no injector, want 0", n)
	}
}

// TestExecContextMemBudget exercises the memory dimension of the
// resource budget: a tiny MaxMemBytes trips a typed Exceeded from the
// columnar allocator, a generous one changes nothing about the result,
// and what a join is charged is its table images plus index vectors —
// not gathered copies of the columns it reads.
func TestExecContextMemBudget(t *testing.T) {
	db, reg, source := ctxFixture(t)
	q := ctxQueries(t, source)[2] // join: two scans, one filter selection, join pairs

	run := func(limit int64) (*Relation, *budget.Meter, error) {
		m := budget.NewMeter(budget.Limits{MaxMemBytes: limit})
		out, err := NewEvaluator(db, reg).ExecContext(budget.WithMeter(context.Background(), m), q)
		return out, m, err
	}
	tripsAt := func(limit int64, site string) {
		t.Helper()
		out, _, err := run(limit)
		if out != nil {
			t.Fatal("memory-tripped exec returned a partial relation")
		}
		var e *budget.Exceeded
		if !errors.As(err, &e) || e.Resource != "memory" || e.Limit != limit || e.Site != site {
			t.Fatalf("want memory Exceeded at %s with limit %d, got %v", site, limit, err)
		}
	}
	tripsAt(64, "storage")

	want, err := NewEvaluator(db, reg).ExecContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// The two table images (10000 and 5000 rows of two int columns), the
	// 500-row selection of R1's filter, and per output row the join's
	// index pair plus R1's selection composed through it: 12 bytes a row
	// where gathering four columns on top of gathered inputs charged 32.
	const tables = (10000 + 5000) * 2 * 8
	charged := int64(tables + 500*4 + len(want.Tuples)*12)
	got, m, err := run(charged)
	if err != nil {
		t.Fatalf("a budget of exactly the bytes held tripped: %v", err)
	}
	if !ResultsEqualBag(got, want) {
		t.Fatal("memory-budgeted result differs from unbudgeted result")
	}
	if m.Mem() != charged {
		t.Fatalf("join charged %d bytes, want %d", m.Mem(), charged)
	}
	tripsAt(charged-1, "join")
	tripsAt(tables, "scan")
}

// TestDBOnInvalidateHook pins the invalidation seam the serving layer's
// plan cache hangs off: the hook fires with the relation's declared
// name on every loud install (Put, Append, a non-Silent Apply commit),
// stays quiet for Silent commits, by delta or whole, and a nil fn unregisters
// it. The store compares names exactly: another spelling names no
// relation.
func TestDBOnInvalidateHook(t *testing.T) {
	db := NewDB()
	var fired []string
	db.SetOnInvalidate(func(name string) { fired = append(fired, name) })

	db.Put("Sales", NewRelation("a"))
	if db.Append("SALES", []value.Value{value.Int(1)}) {
		t.Fatal("Append found Sales under the name SALES")
	}
	db.Append("Sales", []value.Value{value.Int(1)})
	base, _, _ := db.Scan("Sales")
	db.Apply([]Commit{{Name: "Sales", Base: base, Delta: Delta{Drop: []int32{0}}}})
	if len(fired) != 3 || fired[0] != "Sales" || fired[1] != "Sales" || fired[2] != "Sales" {
		t.Fatalf("hook observed %v, want [Sales Sales Sales]", fired)
	}
	base, _, _ = db.Scan("Sales")
	db.Apply([]Commit{{Name: "Sales", Base: base, Delta: Delta{Append: [][]value.Value{{value.Int(2)}}}, Silent: true}})
	db.Apply([]Commit{{Name: "Sales", Table: BuildColTable(NewRelation("a")), Silent: true}})
	if len(fired) != 3 {
		t.Fatalf("silent installs fired the hook: %v", fired)
	}

	// The hook must be able to consult the database without deadlocking
	// (it is invoked outside db.mu).
	db.SetOnInvalidate(func(name string) {
		if _, _, err := db.Scan("Sales"); err != nil {
			t.Errorf("hook scan: %v", err)
		}
	})
	db.Append("Sales", []value.Value{value.Int(3)})

	db.SetOnInvalidate(nil)
	db.Append("Sales", []value.Value{value.Int(4)}) // must not panic
}
