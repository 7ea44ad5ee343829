package engine

import (
	"context"
	"math"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/value"
)

func src() ir.MapSource {
	return ir.MapSource{
		"R1":            {"A", "B", "C", "D"},
		"R2":            {"E", "F"},
		"Calls":         {"Call_Id", "Plan_Id", "Month", "Year", "Charge"},
		"Calling_Plans": {"Plan_Id", "Plan_Name"},
	}
}

func iv(n int64) value.Value  { return value.Int(n) }
func sv(s string) value.Value { return value.Str(s) }

func smallDB() *DB {
	db := NewDB()
	r1 := NewRelation("A", "B", "C", "D")
	r1.Add(iv(1), iv(10), iv(100), iv(10))
	r1.Add(iv(1), iv(20), iv(100), iv(20))
	r1.Add(iv(2), iv(30), iv(200), iv(31)) // B <> D
	r1.Add(iv(1), iv(10), iv(100), iv(10)) // duplicate of row 0
	db.Put("R1", r1)
	r2 := NewRelation("E", "F")
	r2.Add(iv(5), iv(100))
	r2.Add(iv(6), iv(200))
	r2.Add(iv(7), iv(999))
	db.Put("R2", r2)
	return db
}

func exec(t *testing.T, db *DB, views *ir.Registry, sql string, source ir.SchemaSource) *Relation {
	t.Helper()
	if source == nil {
		source = src()
	}
	q := ir.MustBuild(sql, source)
	r, err := NewEvaluator(db, views).ExecContext(context.Background(), q)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return r
}

func TestScanAndFilter(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT A, B FROM R1 WHERE B = D", nil)
	if r.Len() != 3 {
		t.Fatalf("want 3 rows (with duplicate), got %d:\n%s", r.Len(), r)
	}
	r = exec(t, db, nil, "SELECT A FROM R1 WHERE B <> D", nil)
	if r.Len() != 1 || r.Tuples[0][0].AsInt() != 2 {
		t.Fatalf("inequality filter wrong:\n%s", r)
	}
	r = exec(t, db, nil, "SELECT A FROM R1 WHERE B >= 20 AND B <= 30", nil)
	if r.Len() != 2 {
		t.Fatalf("range filter: %s", r)
	}
}

func TestMultisetSemanticsPreserveDuplicates(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT A FROM R1", nil)
	if r.Len() != 4 {
		t.Fatalf("projection must keep duplicates: %d", r.Len())
	}
	d := exec(t, db, nil, "SELECT DISTINCT A FROM R1", nil)
	if d.Len() != 2 {
		t.Fatalf("DISTINCT: want 2, got %d", d.Len())
	}
}

func TestHashJoin(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT A, E FROM R1, R2 WHERE C = F", nil)
	// R1 rows with C=100 (3 rows) join E=5; C=200 (1 row) joins E=6.
	if r.Len() != 4 {
		t.Fatalf("join row count: want 4, got %d\n%s", r.Len(), r)
	}
}

func TestCrossProductAndResidualPredicate(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT A, E FROM R1, R2", nil)
	if r.Len() != 12 {
		t.Fatalf("cross product: want 12, got %d", r.Len())
	}
	// Non-equality predicate across tables goes through the residual path.
	r = exec(t, db, nil, "SELECT A, E FROM R1, R2 WHERE C < F", nil)
	// C=100 rows (3) with F in {200,999} -> 6; C=200 row with F=999 -> 1.
	if r.Len() != 7 {
		t.Fatalf("residual predicate: want 7, got %d\n%s", r.Len(), r)
	}
}

func TestSelfJoin(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT r.A FROM R1 r, R1 s WHERE r.B = s.D", nil)
	// Pairs where r.B = s.D: B values {10,20,30,10}; D values {10,20,31,10}.
	// B=10 matches D=10 (2 rows) twice (rows 0 and 3): 2*2=4; B=20 matches
	// D=20 once; B=30 matches nothing. Total 4+1 = 5.
	if r.Len() != 5 {
		t.Fatalf("self join: want 5, got %d\n%s", r.Len(), r)
	}
}

func TestGroupingAndAggregates(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT A, COUNT(B), SUM(B), MIN(B), MAX(B), AVG(B) FROM R1 GROUP BY A", nil).Sorted()
	if r.Len() != 2 {
		t.Fatalf("groups: %s", r)
	}
	// Group A=1: B in {10,20,10}; Group A=2: B in {30}.
	g1 := r.Tuples[0]
	if g1[0].AsInt() != 1 || g1[1].AsInt() != 3 || g1[2].AsInt() != 40 ||
		g1[3].AsInt() != 10 || g1[4].AsInt() != 20 {
		t.Errorf("group 1 aggregates wrong: %v", g1)
	}
	if av := g1[5].AsFloat(); av < 13.3 || av > 13.4 {
		t.Errorf("AVG: %v", g1[5])
	}
	g2 := r.Tuples[1]
	if g2[0].AsInt() != 2 || g2[1].AsInt() != 1 || g2[2].AsInt() != 30 {
		t.Errorf("group 2 aggregates wrong: %v", g2)
	}
}

func TestGlobalAggregate(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT COUNT(A), SUM(B) FROM R1", nil)
	if r.Len() != 1 || r.Tuples[0][0].AsInt() != 4 || r.Tuples[0][1].AsInt() != 70 {
		t.Fatalf("global aggregate: %s", r)
	}
	// Empty input: zero rows under the documented simplification.
	r = exec(t, db, nil, "SELECT COUNT(A) FROM R1 WHERE A > 100", nil)
	if r.Len() != 0 {
		t.Fatalf("empty input should produce no groups, got %s", r)
	}
}

func TestHaving(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT A, SUM(B) FROM R1 GROUP BY A HAVING SUM(B) > 35", nil)
	if r.Len() != 1 || r.Tuples[0][0].AsInt() != 1 {
		t.Fatalf("HAVING: %s", r)
	}
	r = exec(t, db, nil, "SELECT A FROM R1 GROUP BY A HAVING COUNT(B) >= 3 AND MIN(B) = 10", nil)
	if r.Len() != 1 {
		t.Fatalf("HAVING conjunction: %s", r)
	}
}

func TestCountStar(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT A, COUNT(*) FROM R1 GROUP BY A", nil).Sorted()
	if r.Tuples[0][1].AsInt() != 3 || r.Tuples[1][1].AsInt() != 1 {
		t.Fatalf("COUNT(*): %s", r)
	}
}

func TestArithmeticInSelectAndAggregate(t *testing.T) {
	db := smallDB()
	// Scaled aggregate: SUM(B * A) and outside arithmetic on grouping col.
	r := exec(t, db, nil, "SELECT A, A * 2, SUM(B * A) FROM R1 GROUP BY A", nil).Sorted()
	g1 := r.Tuples[0]
	if g1[1].AsInt() != 2 || g1[2].AsInt() != 40 {
		t.Errorf("arith select: %v", g1)
	}
	g2 := r.Tuples[1]
	if g2[1].AsInt() != 4 || g2[2].AsInt() != 60 {
		t.Errorf("arith select: %v", g2)
	}
}

func TestViewResolution(t *testing.T) {
	db := smallDB()
	reg := ir.NewRegistry()
	vq := ir.MustBuild("SELECT A, SUM(B) FROM R1 GROUP BY A", src())
	v, err := ir.NewViewDef("V1", vq)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v); err != nil {
		t.Fatal(err)
	}
	full := ir.MultiSource{src(), reg}
	r := exec(t, db, reg, "SELECT A FROM V1 WHERE sum_B > 35", full)
	if r.Len() != 1 || r.Tuples[0][0].AsInt() != 1 {
		t.Fatalf("query over view: %s", r)
	}
}

func TestMaterializedViewPreferred(t *testing.T) {
	// When a relation with the view's name exists in the DB, it is used
	// directly instead of evaluating the definition.
	db := smallDB()
	mat := NewRelation("A", "sum_B")
	mat.Add(iv(42), iv(1))
	db.Put("V1", mat)
	reg := ir.NewRegistry()
	vq := ir.MustBuild("SELECT A, SUM(B) FROM R1 GROUP BY A", src())
	v, _ := ir.NewViewDef("V1", vq)
	_ = reg.Add(v)
	full := ir.MultiSource{src(), reg}
	r := exec(t, db, reg, "SELECT A FROM V1", full)
	if r.Len() != 1 || r.Tuples[0][0].AsInt() != 42 {
		t.Fatalf("materialized view not preferred: %s", r)
	}
}

func TestErrors(t *testing.T) {
	ctx := context.Background()
	db := smallDB()
	q := ir.MustBuild("SELECT A FROM R1", ir.MapSource{"R1": {"A"}})
	if _, err := NewEvaluator(db, nil).ExecContext(ctx, q); err == nil {
		t.Error("arity mismatch should fail")
	}
	q2 := ir.MustBuild("SELECT X FROM Missing", ir.MapSource{"Missing": {"X"}})
	if _, err := NewEvaluator(db, nil).ExecContext(ctx, q2); err == nil {
		t.Error("missing relation should fail")
	}
	// SUM over strings must fail.
	db2 := NewDB()
	rs := NewRelation("S")
	rs.Add(sv("x"))
	db2.Put("T", rs)
	q3 := ir.MustBuild("SELECT SUM(S) FROM T", ir.MapSource{"T": {"S"}})
	if _, err := NewEvaluator(db2, nil).ExecContext(ctx, q3); err == nil {
		t.Error("SUM over strings should fail")
	}
	q4 := ir.MustBuild("SELECT AVG(S) FROM T", ir.MapSource{"T": {"S"}})
	if _, err := NewEvaluator(db2, nil).ExecContext(ctx, q4); err == nil {
		t.Error("AVG over strings should fail")
	}
}

func TestIncomparableCompareFalse(t *testing.T) {
	db := NewDB()
	r := NewRelation("A", "B")
	r.Add(iv(1), sv("x"))
	db.Put("T", r)
	out := exec(t, db, nil, "SELECT A FROM T WHERE A = B", ir.MapSource{"T": {"A", "B"}})
	if out.Len() != 0 {
		t.Error("int = string should be false")
	}
	out = exec(t, db, nil, "SELECT A FROM T WHERE A <> B", ir.MapSource{"T": {"A", "B"}})
	if out.Len() != 1 {
		t.Error("int <> string should be true")
	}
}

func TestConstantPredicate(t *testing.T) {
	db := smallDB()
	if r := exec(t, db, nil, "SELECT A FROM R1 WHERE 1 = 2", nil); r.Len() != 0 {
		t.Error("false constant predicate")
	}
	if r := exec(t, db, nil, "SELECT A FROM R1 WHERE 1 < 2", nil); r.Len() != 4 {
		t.Error("true constant predicate")
	}
}

func TestRelationHelpers(t *testing.T) {
	r := NewRelation("A", "B")
	r.Add(iv(2), sv("b"))
	r.Add(iv(1), sv("a"))
	// Sorted orders by value.Compare column by column, whatever the keys'
	// bytes; tuples it calls equal (-0 and 0) keep their order.
	r.Add(value.Float(math.Copysign(0, -1)), sv("a"))
	r.Add(value.Float(10), sv("a"))
	r.Add(iv(-3), sv("z"))
	r.Add(value.Float(0), sv("a"))
	r.Add(value.Float(2.5), sv("a"))
	want := []string{"-3 'z'", "-0.0 'a'", "0.0 'a'", "1 'a'", "2 'b'", "2.5 'a'", "10.0 'a'"}
	for i, tup := range r.Sorted().Tuples {
		if got := tup[0].String() + " " + tup[1].String(); got != want[i] {
			t.Errorf("Sorted row %d: %s, want %s", i, got, want[i])
		}
	}
	if r.Tuples[0][0].AsInt() != 2 {
		t.Error("Sorted must not mutate")
	}
	defer func() {
		if recover() == nil {
			t.Error("arity panic expected")
		}
	}()
	r.Add(iv(1))
}

func TestEmptyRelationEverywhere(t *testing.T) {
	db := NewDB()
	db.Put("R1", NewRelation("A", "B", "C", "D"))
	db.Put("R2", NewRelation("E", "F"))
	cases := []string{
		"SELECT A FROM R1",
		"SELECT A, SUM(B) FROM R1 GROUP BY A",
		"SELECT SUM(B) FROM R1",
		"SELECT A, E FROM R1, R2 WHERE A = E",
		"SELECT DISTINCT A FROM R1",
		"SELECT A FROM R1 GROUP BY A HAVING COUNT(B) > 0",
	}
	for _, sql := range cases {
		if r := exec(t, db, nil, sql, nil); r.Len() != 0 {
			t.Errorf("%s over empty tables: %d rows", sql, r.Len())
		}
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	db := smallDB()
	r := exec(t, db, nil, "SELECT SUM(B) FROM R1 HAVING COUNT(A) > 3", nil)
	if r.Len() != 1 {
		t.Fatalf("global HAVING should keep the single group: %s", r)
	}
	r = exec(t, db, nil, "SELECT SUM(B) FROM R1 HAVING COUNT(A) > 100", nil)
	if r.Len() != 0 {
		t.Fatalf("global HAVING should drop the group: %s", r)
	}
}

func TestOneSidedJoinEmpty(t *testing.T) {
	db := smallDB()
	db.Put("R2", NewRelation("E", "F"))
	r := exec(t, db, nil, "SELECT A FROM R1, R2 WHERE C = F", nil)
	if r.Len() != 0 {
		t.Fatal("join with an empty side must be empty")
	}
}

func TestMixedIntFloatGroupingKeys(t *testing.T) {
	db := NewDB()
	rel := NewRelation("K", "V")
	rel.Add(iv(1), iv(10))
	rel.Add(value.Float(1.0), iv(20)) // same group as Int(1)
	rel.Add(value.Float(1.5), iv(30))
	db.Put("T", rel)
	r := exec(t, db, nil, "SELECT K, SUM(V) FROM T GROUP BY K", ir.MapSource{"T": {"K", "V"}}).Sorted()
	if r.Len() != 2 {
		t.Fatalf("1 and 1.0 must share a group: %s", r)
	}
	if r.Tuples[0][1].AsInt() != 30 {
		t.Fatalf("mixed-type group sum: %s", r)
	}
}
