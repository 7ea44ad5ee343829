package engine

import (
	"context"
	"fmt"
	"testing"

	"aggview/internal/ir"
)

// countingViews wraps a registry and counts Get calls per view name, to
// observe how many times the evaluator reaches for a definition. The
// evaluator memoizes materializations, so each auxiliary view should be
// fetched (and executed) exactly once per Evaluator no matter how many
// queries reference it.
type countingViews struct {
	reg  *ir.Registry
	gets map[string]int
}

func (c *countingViews) Get(name string) (*ir.ViewDef, bool) {
	c.gets[name]++
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
