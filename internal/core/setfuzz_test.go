package core

// Randomized sweep of the Section 5 set-semantics path: conjunctive
// queries and views over keyed tables, with many-to-1 mapping
// opportunities. Every accepted candidate passed the chase-based
// containment verification; here each one is additionally executed on
// key-consistent random databases and compared set-wise.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/keys"
	"aggview/internal/schema"
	"aggview/internal/value"
)

// keyedDB builds R1 with unique key A (and R2 with unique key E).
func keyedDB(seed int64) *engine.DB {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDB()
	r1 := engine.NewRelation("A", "B", "C", "D")
	n := 5 + rng.Intn(10)
	for a := 0; a < n; a++ {
		r1.Add(value.Int(int64(a)), value.Int(int64(rng.Intn(4))),
			value.Int(int64(rng.Intn(4))), value.Int(int64(rng.Intn(3))))
	}
	db.Put("R1", r1)
	r2 := engine.NewRelation("E", "F")
	for e := 0; e < 4+rng.Intn(5); e++ {
		r2.Add(value.Int(int64(e)), value.Int(int64(rng.Intn(4))))
	}
	db.Put("R2", r2)
	return db
}

func genSetView(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return "SELECT r.A, s.A FROM R1 r, R1 s WHERE r.B = s.C"
	case 1:
		return "SELECT r.A, s.A, r.B FROM R1 r, R1 s WHERE r.C = s.C"
	case 2:
		return fmt.Sprintf("SELECT A, B, C FROM R1 WHERE D = %d", rng.Intn(3))
	default:
		return "SELECT r.A, s.A, s.D FROM R1 r, R1 s WHERE r.B = s.B"
	}
}

func genSetQuery(rng *rand.Rand) string {
	switch rng.Intn(5) {
	case 0:
		return "SELECT A FROM R1 WHERE B = C"
	case 1:
		return "SELECT A, B FROM R1 WHERE C = C"
	case 2:
		return fmt.Sprintf("SELECT A FROM R1 WHERE D = %d", rng.Intn(3))
	case 3:
		return "SELECT A, D FROM R1 WHERE B = B"
	default:
		return "SELECT r.A, s.A FROM R1 r, R1 s WHERE r.B = s.B"
	}
}

func TestFuzzSetSemantics(t *testing.T) {
	ctx := context.Background()
	cat := schema.NewCatalog()
	if err := cat.AddTable(&schema.Table{
		Name: "R1", Columns: []string{"A", "B", "C", "D"}, Keys: [][]string{{"A"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(&schema.Table{
		Name: "R2", Columns: []string{"E", "F"}, Keys: [][]string{{"E"}},
	}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(505))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	produced, setOnly := 0, 0
	for trial := 0; trial < trials; trial++ {
		viewSQL := genSetView(rng)
		querySQL := genSetQuery(rng)
		reg := ir.NewRegistry()
		v, err := ir.NewViewDef("V", ir.MustBuild(viewSQL, cat))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(v); err != nil {
			t.Fatal(err)
		}
		rw := &Rewriter{Views: reg, Meta: keys.CatalogMeta{Catalog: cat}}
		q := ir.MustBuild(querySQL, cat)
		for _, r := range mustRewriteOnce(t, rw, q, v) {
			produced++
			if r.SetOnly {
				setOnly++
			}
			for seed := int64(0); seed < 4; seed++ {
				db := keyedDB(seed*71 + int64(trial))
				want, err1 := engine.NewEvaluator(db, reg).ExecContext(ctx, q)
				got, err2 := engine.NewEvaluator(db, reg).ExecContext(ctx, r.Query)
				if err1 != nil || err2 != nil {
					t.Fatalf("execution failed: %v / %v\n view: %s\n query: %s", err1, err2, viewSQL, querySQL)
				}
				if r.SetOnly {
					dq, dr := q.Clone(), r.Query.Clone()
					dq.Distinct, dr.Distinct = true, true
					ws, _ := engine.NewEvaluator(db, reg).ExecContext(ctx, dq)
					gs, _ := engine.NewEvaluator(db, reg).ExecContext(ctx, dr)
					if !engine.ResultsEqualBag(ws, gs) {
						t.Fatalf("set-equivalence violated\n view: %s\n query: %s\n Q': %s\nwant:\n%s\ngot:\n%s",
							viewSQL, querySQL, r.Query.SQL(), ws.Sorted(), gs.Sorted())
					}
					continue
				}
				if !engine.ResultsEqualBag(want, got) {
					t.Fatalf("bag-equivalence violated\n view: %s\n query: %s\n Q': %s", viewSQL, querySQL, r.Query.SQL())
				}
			}
		}
	}
	if produced == 0 {
		t.Fatal("fuzzer produced no rewritings")
	}
	if setOnly == 0 {
		t.Fatal("fuzzer never exercised the set-semantics path")
	}
	t.Logf("set fuzz: %d rewritings (%d set-only) over %d trials", produced, setOnly, trials)
}
