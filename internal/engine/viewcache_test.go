package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"aggview/internal/ir"
)

// countingViews wraps a registry and counts Get calls per view name, to
// observe how many times the evaluator reaches for a definition. The
// evaluator caches materializations, so each auxiliary view should be
// fetched (and executed) exactly once per Evaluator no matter how many
// queries — or goroutines — reference it.
type countingViews struct {
	reg  *ir.Registry
	mu   sync.Mutex
	gets map[string]int
}

func (c *countingViews) Get(name string) (*ir.ViewDef, bool) {
	c.mu.Lock()
	c.gets[name]++
	c.mu.Unlock()
	return c.reg.Get(name)
}

func viewCacheFixture(t *testing.T) (*DB, *countingViews, ir.SchemaSource) {
	t.Helper()
	db := NewDB()
	r := NewRelation("A", "B")
	for i := 0; i < 3000; i++ {
		r.Add(iv(int64(i%7)), iv(int64(i)))
	}
	db.Put("R1", r)

	tables := ir.MapSource{"R1": {"A", "B"}}
	reg := ir.NewRegistry()
	vq := ir.MustBuild("SELECT A, SUM(B) FROM R1 GROUP BY A", tables)
	vd, err := ir.NewViewDef("VSum", vq)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(vd); err != nil {
		t.Fatal(err)
	}
	cv := &countingViews{reg: reg, gets: map[string]int{}}
	return db, cv, ir.MultiSource{tables, reg}
}

// TestViewCacheMaterializesOnce runs several queries over the same
// auxiliary view on one evaluator and asserts the view definition is
// looked up — hence materialized — exactly once.
func TestViewCacheMaterializesOnce(t *testing.T) {
	db, cv, source := viewCacheFixture(t)
	ev := NewEvaluator(db, cv)
	for i := 0; i < 5; i++ {
		q := ir.MustBuild(fmt.Sprintf("SELECT A FROM VSum WHERE A = %d", i), source)
		if _, err := ev.ExecContext(context.Background(), q); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	if got := cv.gets["VSum"]; got != 1 {
		t.Fatalf("view definition fetched %d times, want exactly 1 (cache miss per query?)", got)
	}
}

// TestViewCacheConcurrentExec hammers one evaluator from many
// goroutines; the view must still be materialized exactly once and every
// goroutine must see the same (correct) result.
func TestViewCacheConcurrentExec(t *testing.T) {
	ctx := context.Background()
	db, cv, source := viewCacheFixture(t)
	ev := NewEvaluator(db, cv)
	ev.Workers = 4

	q := ir.MustBuild("SELECT A, sum_B FROM VSum", ir.MultiSource{source})
	want, err := NewEvaluator(db, cv.reg).ExecContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := ev.ExecContext(ctx, q)
			if err != nil {
				errs[g] = err
				return
			}
			if !ResultsEqualBag(got, want) {
				errs[g] = fmt.Errorf("goroutine %d: result differs from reference", g)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := cv.gets["VSum"]; got != 1 {
		t.Fatalf("view definition fetched %d times under concurrency, want exactly 1", got)
	}
}

// TestViewCacheSingleflightManyViews races many goroutines over several
// distinct views at once: each view must be materialized exactly once
// (singleflight per entry, not one global latch), and materializing one
// view must not block goroutines resolving a different one from making
// progress toward correct results.
func TestViewCacheSingleflightManyViews(t *testing.T) {
	ctx := context.Background()
	db := NewDB()
	r := NewRelation("A", "B")
	for i := 0; i < 5000; i++ {
		r.Add(iv(int64(i%11)), iv(int64(i)))
	}
	db.Put("R1", r)

	tables := ir.MapSource{"R1": {"A", "B"}}
	reg := ir.NewRegistry()
	viewNames := []string{"VSum", "VCnt", "VMin", "VMax"}
	defs := map[string]string{
		"VSum": "SELECT A, SUM(B) FROM R1 GROUP BY A",
		"VCnt": "SELECT A, COUNT(B) FROM R1 GROUP BY A",
		"VMin": "SELECT A, MIN(B) FROM R1 GROUP BY A",
		"VMax": "SELECT A, MAX(B) FROM R1 GROUP BY A",
	}
	for _, name := range viewNames {
		vd, err := ir.NewViewDef(name, ir.MustBuild(defs[name], tables))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(vd); err != nil {
			t.Fatal(err)
		}
	}
	cv := &countingViews{reg: reg, gets: map[string]int{}}
	source := ir.MultiSource{tables, reg}

	outCols := map[string]string{
		"VSum": "sum_B", "VCnt": "count_B", "VMin": "min_B", "VMax": "max_B",
	}
	queries := make([]*ir.Query, len(viewNames))
	wants := make([]*Relation, len(viewNames))
	for i, name := range viewNames {
		queries[i] = ir.MustBuild("SELECT A, "+outCols[name]+" FROM "+name, source)
		want, err := NewEvaluator(db, reg).ExecContext(ctx, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}

	ev := NewEvaluator(db, cv)
	ev.Workers = 4
	const goroutines = 24
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(viewNames)
			got, err := ev.ExecContext(ctx, queries[i])
			if err != nil {
				errs[g] = err
				return
			}
			if !ResultsEqualBag(got, wants[i]) {
				errs[g] = fmt.Errorf("goroutine %d: %s result differs from reference", g, viewNames[i])
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range viewNames {
		if got := cv.gets[name]; got != 1 {
			t.Fatalf("view %s fetched %d times under concurrency, want exactly 1", name, got)
		}
	}
}
