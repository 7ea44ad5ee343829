package engine

// Property-based tests (testing/quick) on the engine's core invariants:
// each property quantifies over randomly generated databases.

import (
	"context"
	"testing"
	"testing/quick"

	"aggview/internal/ir"
)

// dbFromSeed builds a small random database deterministically from a
// seed (quick generates the seeds).
func dbFromSeed(seed int64) *DB {
	// A tiny xorshift so the data is a pure function of the seed.
	s := uint64(seed)*2654435761 + 1
	next := func(n int) int64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int64(s % uint64(n))
	}
	db := NewDB()
	r1 := NewRelation("A", "B", "C", "D")
	rows := int(next(25))
	for i := 0; i < rows; i++ {
		r1.Add(iv(next(4)), iv(next(5)), iv(next(3)), iv(next(5)))
	}
	db.Put("R1", r1)
	r2 := NewRelation("E", "F")
	for i := 0; i < int(next(10)); i++ {
		r2.Add(iv(next(4)), iv(next(3)))
	}
	db.Put("R2", r2)
	return db
}

func exec2(t *testing.T, db *DB, sql string) *Relation {
	t.Helper()
	q := ir.MustBuild(sql, src())
	r, err := NewEvaluator(db, nil).ExecContext(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return r
}

// Property: the per-group COUNTs sum to the filtered row count.
func TestQuickGroupCountsPartitionRows(t *testing.T) {
	f := func(seed int64) bool {
		db := dbFromSeed(seed)
		total := exec2(t, db, "SELECT COUNT(A) FROM R1 WHERE B > 1")
		grouped := exec2(t, db, "SELECT A, COUNT(B) FROM R1 WHERE B > 1 GROUP BY A")
		var sum int64
		for _, row := range grouped.Tuples {
			sum += row[1].AsInt()
		}
		if total.Len() == 0 {
			return sum == 0
		}
		return sum == total.Tuples[0][0].AsInt()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MIN <= AVG <= MAX within every group.
func TestQuickMinAvgMaxOrder(t *testing.T) {
	f := func(seed int64) bool {
		db := dbFromSeed(seed)
		r := exec2(t, db, "SELECT A, MIN(B), AVG(B), MAX(B) FROM R1 GROUP BY A")
		for _, row := range r.Tuples {
			mn, av, mx := row[1].AsFloat(), row[2].AsFloat(), row[3].AsFloat()
			if mn > av || av > mx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DISTINCT removes exactly the duplicates — same supporting
// set, no repeated tuples.
func TestQuickDistinct(t *testing.T) {
	f := func(seed int64) bool {
		db := dbFromSeed(seed)
		plain := exec2(t, db, "SELECT A, B FROM R1")
		dist := exec2(t, db, "SELECT DISTINCT A, B FROM R1")
		seen := map[string]bool{}
		for _, row := range dist.Tuples {
			k := tupleKey(row)
			if seen[k] {
				return false // duplicate survived
			}
			seen[k] = true
		}
		support := map[string]bool{}
		for _, row := range plain.Tuples {
			support[tupleKey(row)] = true
		}
		if len(support) != dist.Len() {
			return false
		}
		for k := range seen {
			if !support[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FROM-clause order does not change the result multiset.
func TestQuickJoinCommutative(t *testing.T) {
	f := func(seed int64) bool {
		db := dbFromSeed(seed)
		a := exec2(t, db, "SELECT A, E FROM R1, R2 WHERE B = F")
		b := exec2(t, db, "SELECT A, E FROM R2, R1 WHERE B = F")
		return ResultsEqualBag(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SUM distributes over the group partition: the global SUM
// equals the sum of group SUMs.
func TestQuickSumPartition(t *testing.T) {
	f := func(seed int64) bool {
		db := dbFromSeed(seed)
		global := exec2(t, db, "SELECT SUM(B) FROM R1")
		grouped := exec2(t, db, "SELECT A, SUM(B) FROM R1 GROUP BY A")
		var sum int64
		for _, row := range grouped.Tuples {
			sum += row[1].AsInt()
		}
		if global.Len() == 0 {
			return sum == 0
		}
		return sum == global.Tuples[0][0].AsInt()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a WHERE filter never increases the row count, and filtering
// with a tautology changes nothing.
func TestQuickFilterMonotone(t *testing.T) {
	f := func(seed int64) bool {
		db := dbFromSeed(seed)
		all := exec2(t, db, "SELECT A FROM R1")
		some := exec2(t, db, "SELECT A FROM R1 WHERE B > 2")
		taut := exec2(t, db, "SELECT A FROM R1 WHERE B = B")
		return some.Len() <= all.Len() && ResultsEqualBag(all, taut)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: materialized-view indirection is invisible — evaluating a
// query over a view equals evaluating its expansion.
func TestQuickViewExpansionTransparent(t *testing.T) {
	ctx := context.Background()
	reg := ir.NewRegistry()
	vq := ir.MustBuild("SELECT A, B FROM R1 WHERE C = 1", src())
	v, err := ir.NewViewDef("W", vq)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v); err != nil {
		t.Fatal(err)
	}
	full := ir.MultiSource{src(), reg}
	over := ir.MustBuild("SELECT A, COUNT(B) FROM W GROUP BY A", full)
	expanded := ir.MustBuild("SELECT A, COUNT(B) FROM R1 WHERE C = 1 GROUP BY A", src())
	f := func(seed int64) bool {
		db := dbFromSeed(seed)
		a, err1 := NewEvaluator(db, reg).ExecContext(ctx, over)
		b, err2 := NewEvaluator(db, nil).ExecContext(ctx, expanded)
		if err1 != nil || err2 != nil {
			return false
		}
		return ResultsEqualBag(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
