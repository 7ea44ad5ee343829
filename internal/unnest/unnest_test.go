package unnest

import (
	"context"
	"math/rand"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/value"
)

func src() ir.MapSource {
	return ir.MapSource{"R1": {"A", "B", "C", "D"}, "R2": {"E", "F"}}
}

func regWith(t *testing.T, defs map[string]string) (*ir.Registry, ir.SchemaSource) {
	t.Helper()
	reg := ir.NewRegistry()
	full := ir.MultiSource{src(), reg}
	// Register in sorted order for determinism.
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		v, err := ir.NewViewDef(n, ir.MustBuild(defs[n], full))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return reg, full
}

func randDB(seed int64) *engine.DB {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDB()
	r1 := engine.NewRelation("A", "B", "C", "D")
	for i := 0; i < 40; i++ {
		row := []value.Value{
			value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(4))),
			value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(4))),
		}
		r1.Add(row...)
		if rng.Intn(4) == 0 {
			r1.Add(row...)
		}
	}
	db.Put("R1", r1)
	r2 := engine.NewRelation("E", "F")
	for i := 0; i < 15; i++ {
		r2.Add(value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(4))))
	}
	db.Put("R2", r2)
	return db
}

// checkEquivalent runs the original (with view expansion) and the
// flattened query (base tables only) and compares multisets.
func checkEquivalent(t *testing.T, q, flat *ir.Query, reg *ir.Registry) {
	ctx := context.Background()
	t.Helper()
	for seed := int64(0); seed < 5; seed++ {
		db := randDB(seed)
		want, err := engine.NewEvaluator(db, reg).ExecContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.NewEvaluator(db, nil).ExecContext(ctx, flat)
		if err != nil {
			t.Fatalf("flattened query needs no views: %v\n%s", err, flat.SQL())
		}
		if !engine.ResultsEqualBag(want, got) {
			t.Fatalf("flatten changed semantics\noriginal: %s\nflattened: %s", q.SQL(), flat.SQL())
		}
	}
}

func TestFlattenConjunctiveView(t *testing.T) {
	reg, full := regWith(t, map[string]string{
		"Sliced": "SELECT A, B, D FROM R1 WHERE C = 2",
	})
	q := ir.MustBuild("SELECT A, SUM(B) FROM Sliced WHERE D > 0 GROUP BY A", full)
	flat, changed := Flatten(q, reg, nil)
	if !changed {
		t.Fatal("conjunctive view should flatten")
	}
	if len(flat.Tables) != 1 || flat.Tables[0].Source != "R1" {
		t.Fatalf("views remain: %s", flat.SQL())
	}
	checkEquivalent(t, q, flat, reg)
}

func TestFlattenJoinViewWithOuterJoinPredicate(t *testing.T) {
	reg, full := regWith(t, map[string]string{
		"J": "SELECT A, E FROM R1, R2 WHERE B = F",
	})
	q := ir.MustBuild("SELECT A, COUNT(E) FROM J WHERE A = E GROUP BY A", full)
	flat, changed := Flatten(q, reg, nil)
	if !changed {
		t.Fatal("join view should flatten")
	}
	if len(flat.Tables) != 2 {
		t.Fatalf("expected R1, R2 after flattening: %s", flat.SQL())
	}
	checkEquivalent(t, q, flat, reg)
}

func TestFlattenNestedViews(t *testing.T) {
	reg, full := regWith(t, map[string]string{
		"Inner": "SELECT A, B, C, D FROM R1 WHERE D = 1",
		"Outer": "SELECT A, B FROM Inner WHERE C = 2",
	})
	q := ir.MustBuild("SELECT A, COUNT(B) FROM Outer GROUP BY A", full)
	flat, changed := Flatten(q, reg, nil)
	if !changed {
		t.Fatal("nested views should flatten")
	}
	if len(flat.Tables) != 1 || flat.Tables[0].Source != "R1" {
		t.Fatalf("nested flattening incomplete: %s", flat.SQL())
	}
	if len(flat.Where) != 2 {
		t.Fatalf("both slice predicates should survive: %s", flat.SQL())
	}
	checkEquivalent(t, q, flat, reg)
}

func TestAggregationViewNotFlattened(t *testing.T) {
	reg, full := regWith(t, map[string]string{
		"Agg": "SELECT A, SUM(B) FROM R1 GROUP BY A",
	})
	q := ir.MustBuild("SELECT A, sum_B FROM Agg", full)
	flat, changed := Flatten(q, reg, nil)
	if changed {
		t.Fatalf("aggregation views are genuine blocks: %s", flat.SQL())
	}
}

func TestDistinctViewNotFlattened(t *testing.T) {
	reg, full := regWith(t, map[string]string{
		"Dst": "SELECT DISTINCT A, B FROM R1",
	})
	q := ir.MustBuild("SELECT A FROM Dst", full)
	if _, changed := Flatten(q, reg, nil); changed {
		t.Fatal("DISTINCT views change multiplicities and must not flatten")
	}
}

func TestKeepPinsViews(t *testing.T) {
	reg, full := regWith(t, map[string]string{
		"Sliced": "SELECT A, B, D FROM R1 WHERE C = 2",
	})
	q := ir.MustBuild("SELECT A FROM Sliced", full)
	_, changed := Flatten(q, reg, func(name string) bool { return name == "Sliced" })
	if changed {
		t.Fatal("keep must pin the view")
	}
}

func TestFlattenPreservesSelfJoinOfView(t *testing.T) {
	reg, full := regWith(t, map[string]string{
		"Sliced": "SELECT A, B, C, D FROM R1 WHERE D = 1",
	})
	q := ir.MustBuild("SELECT x.A FROM Sliced x, Sliced y WHERE x.B = y.C", full)
	flat, changed := Flatten(q, reg, nil)
	if !changed || len(flat.Tables) != 2 {
		t.Fatalf("both occurrences should flatten to R1 copies: %s", flat.SQL())
	}
	checkEquivalent(t, q, flat, reg)
}

func TestFlattenMixedBaseAndView(t *testing.T) {
	reg, full := regWith(t, map[string]string{
		"Sliced": "SELECT A, B FROM R1 WHERE C = 1",
	})
	q := ir.MustBuild("SELECT Sliced.A, MAX(F) FROM Sliced, R2 WHERE B = E GROUP BY Sliced.A HAVING MAX(F) > 0", full)
	flat, changed := Flatten(q, reg, nil)
	if !changed {
		t.Fatal("should flatten")
	}
	checkEquivalent(t, q, flat, reg)
}
