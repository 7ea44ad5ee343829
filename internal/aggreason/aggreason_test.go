package aggreason

import (
	"context"
	"testing"

	"aggview/internal/constraints"
	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/value"
)

func src() ir.MapSource {
	return ir.MapSource{"R1": {"A", "B", "C", "D"}, "R2": {"E", "F"}}
}

func q(t *testing.T, sql string) *ir.Query {
	t.Helper()
	return ir.MustBuild(sql, src())
}

func TestNormalizeGroupColumnPredicate(t *testing.T) {
	orig := q(t, "SELECT A, SUM(B) FROM R1 GROUP BY A HAVING A > 5 AND SUM(B) < 100")
	n := Normalize(orig)
	if len(n.Having) != 1 {
		t.Fatalf("want 1 remaining HAVING conjunct, got %d", len(n.Having))
	}
	if len(n.Where) != 1 {
		t.Fatalf("A > 5 should have moved to WHERE, got %v", n.Where)
	}
	p := n.Where[0]
	if p.Op != ir.OpGt || p.L.IsConst || !p.R.IsConst || p.R.Val.AsInt() != 5 {
		t.Errorf("moved predicate wrong: %+v", p)
	}
	// The original must be untouched.
	if len(orig.Having) != 2 || len(orig.Where) != 0 {
		t.Error("Normalize mutated its input")
	}
}

func TestNormalizeGroupPairPredicate(t *testing.T) {
	n := Normalize(q(t, "SELECT A, B FROM R1 GROUP BY A, B HAVING A = B"))
	if len(n.Having) != 0 || len(n.Where) != 1 {
		t.Fatalf("group-column pair predicate should move: having=%d where=%d", len(n.Having), len(n.Where))
	}
}

func TestNormalizeExtremalMax(t *testing.T) {
	// MAX(B) is the only aggregate: MAX(B) > 10 pushes B > 10.
	n := Normalize(q(t, "SELECT A, MAX(B) FROM R1 GROUP BY A HAVING MAX(B) > 10"))
	if len(n.Having) != 0 {
		t.Fatalf("HAVING should be empty, got %v", n.Having)
	}
	if len(n.Where) != 1 || n.Where[0].Op != ir.OpGt {
		t.Fatalf("expected pushed B > 10, got %v", n.Where)
	}
}

func TestNormalizeExtremalMinFlipped(t *testing.T) {
	// Constant on the left: 10 > MIN(B) is MIN(B) < 10.
	n := Normalize(q(t, "SELECT A FROM R1 GROUP BY A HAVING 10 > MIN(B)"))
	if len(n.Having) != 0 || len(n.Where) != 1 || n.Where[0].Op != ir.OpLt {
		t.Fatalf("flipped extremal push failed: %v / %v", n.Having, n.Where)
	}
}

func TestNormalizeExtremalBlockedByOtherAggregates(t *testing.T) {
	// COUNT(B) is also computed: pushing B > 10 would change it.
	n := Normalize(q(t, "SELECT A, COUNT(B) FROM R1 GROUP BY A HAVING MAX(B) > 10"))
	if len(n.Having) != 1 || len(n.Where) != 0 {
		t.Fatalf("extremal push must be blocked: %v / %v", n.Having, n.Where)
	}
}

func TestNormalizeExtremalWrongDirectionBlocked(t *testing.T) {
	// MAX(B) < 10 cannot be pushed as a row filter.
	n := Normalize(q(t, "SELECT A, MAX(B) FROM R1 GROUP BY A HAVING MAX(B) < 10"))
	if len(n.Having) != 1 || len(n.Where) != 0 {
		t.Fatalf("MAX < c must stay in HAVING: %v / %v", n.Having, n.Where)
	}
	n = Normalize(q(t, "SELECT A, MIN(B) FROM R1 GROUP BY A HAVING MIN(B) > 10"))
	if len(n.Having) != 1 || len(n.Where) != 0 {
		t.Fatalf("MIN > c must stay in HAVING: %v / %v", n.Having, n.Where)
	}
}

// Normalize must preserve multiset semantics on concrete data.
func TestNormalizePreservesSemantics(t *testing.T) {
	ctx := context.Background()
	queries := []string{
		"SELECT A, SUM(B) FROM R1 GROUP BY A HAVING A > 1 AND SUM(B) < 100",
		"SELECT A, MAX(B) FROM R1 GROUP BY A HAVING MAX(B) > 15",
		"SELECT A, MIN(B) FROM R1 GROUP BY A HAVING MIN(B) <= 20",
		"SELECT A, B FROM R1 GROUP BY A, B HAVING A = B AND 1 < 2",
		"SELECT A, COUNT(B) FROM R1 GROUP BY A HAVING MAX(B) > 10 AND COUNT(B) > 1",
		"SELECT A FROM R1 GROUP BY A HAVING 10 > MIN(B)",
	}
	db := engine.NewDB()
	r1 := engine.NewRelation("A", "B", "C", "D")
	for a := int64(0); a < 4; a++ {
		for b := int64(5); b <= 25; b += 5 {
			r1.Add(value.Int(a), value.Int(b), value.Int(a*b), value.Int(b))
			if b == 10 {
				r1.Add(value.Int(a), value.Int(b), value.Int(0), value.Int(b)) // duplicates
			}
		}
	}
	db.Put("R1", r1)
	for _, sql := range queries {
		orig := q(t, sql)
		norm := Normalize(orig)
		ev := engine.NewEvaluator(db, nil)
		r1, err1 := ev.ExecContext(ctx, orig)
		r2, err2 := ev.ExecContext(ctx, norm)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: exec errors %v / %v", sql, err1, err2)
		}
		if !engine.ResultsEqualBag(r1, r2) {
			t.Errorf("%s: normalization changed semantics\nbefore:\n%s\nafter:\n%s", sql, r1.Sorted(), r2.Sorted())
		}
	}
}

func TestWhereConj(t *testing.T) {
	query := q(t, "SELECT A FROM R1 WHERE A = B AND C > 3")
	conj := WhereConj(query)
	if len(conj) != 2 {
		t.Fatalf("WhereConj: %v", conj)
	}
	if conj[0].Op != ir.OpEq || conj[1].Op != ir.OpGt {
		t.Errorf("ops wrong: %v", conj)
	}
}

func TestSpaceVariables(t *testing.T) {
	query := q(t, "SELECT A, SUM(B), COUNT(C) FROM R1 GROUP BY A HAVING SUM(B) > 10")
	s := NewSpace(query, nil)
	v1 := s.AggVar(ir.AggSum, 1)
	v2 := s.AggVar(ir.AggSum, 1)
	if v1 != v2 {
		t.Error("same term must reuse its variable")
	}
	if !s.IsAggVar(v1) || s.IsAggVar(s.ColVar(0)) {
		t.Error("IsAggVar")
	}
	// COUNT over different columns shares one variable (no NULLs).
	c1 := s.AggVar(ir.AggCount, 2)
	c2 := s.AggVar(ir.AggCount, 3)
	if c1 != c2 {
		t.Error("COUNT variables must coincide")
	}
	if s.AggVar(ir.AggSum, 2) == v1 {
		t.Error("different columns need different SUM variables")
	}
}

func TestSpaceCanonicalization(t *testing.T) {
	query := q(t, "SELECT A, SUM(B) FROM R1 WHERE B = C GROUP BY A")
	canon := func(c ir.ColID) ir.ColID {
		if c == 2 { // C canonicalizes to B
			return 1
		}
		return c
	}
	s := NewSpace(query, canon)
	if s.AggVar(ir.AggSum, 1) != s.AggVar(ir.AggSum, 2) {
		t.Error("SUM(B) and SUM(C) must share a variable when B = C")
	}
}

func TestHavingConj(t *testing.T) {
	query := q(t, "SELECT A, SUM(B) FROM R1 GROUP BY A HAVING SUM(B) > 10 AND A <= 4")
	s := NewSpace(query, nil)
	conj, ok := s.HavingConj(query)
	if !ok || len(conj) != 2 {
		t.Fatalf("HavingConj: %v %v", conj, ok)
	}
	// Arithmetic in HAVING falls outside the fragment.
	q2 := query.Clone()
	q2.Having = append(q2.Having, ir.HPred{
		Op: ir.OpGt,
		L:  &ir.Arith{Op: ir.ArithMul, L: &ir.ColRef{Col: 0}, R: &ir.Const{Val: value.Int(2)}},
		R:  &ir.Const{Val: value.Int(0)},
	})
	if _, ok := NewSpace(q2, nil).HavingConj(q2); ok {
		t.Error("arithmetic HAVING should not convert")
	}
}

func TestAxiomsStructural(t *testing.T) {
	query := q(t, "SELECT A FROM R1 GROUP BY A HAVING MIN(B) > 0 AND MAX(B) < 9 AND AVG(B) > 1 AND COUNT(B) > 2")
	s := NewSpace(query, nil)
	having, ok := s.HavingConj(query)
	if !ok {
		t.Fatal("having conversion failed")
	}
	axioms := s.Axioms(nil)
	all := append(append(constraints.Conj{}, having...), axioms...)
	// MIN <= AVG <= MAX and COUNT >= 1 must be derivable.
	mn := constraints.V(s.AggVar(ir.AggMin, 1))
	mx := constraints.V(s.AggVar(ir.AggMax, 1))
	av := constraints.V(s.AggVar(ir.AggAvg, 1))
	cnt := constraints.V(s.AggVar(ir.AggCount, 1))
	checks := []constraints.Atom{
		{Op: ir.OpLeq, L: mn, R: mx},
		{Op: ir.OpLeq, L: mn, R: av},
		{Op: ir.OpLeq, L: av, R: mx},
		{Op: ir.OpGeq, L: cnt, R: constraints.C(value.Int(1))},
		// From HAVING: MIN > 0 and MIN <= MAX give MAX > 0.
		{Op: ir.OpGt, L: mx, R: constraints.C(value.Int(0))},
	}
	cl := constraints.Close(all)
	for _, a := range checks {
		if !cl.Implies(a) {
			t.Errorf("axioms do not entail %s", a)
		}
	}
}

func TestAxiomsBoundTransfer(t *testing.T) {
	// WHERE B <= 7 must bound MAX(B) <= 7; WHERE B = 3 pins AVG(B) = 3.
	query := q(t, "SELECT A FROM R1 WHERE B <= 7 GROUP BY A HAVING MAX(B) >= 0")
	s := NewSpace(query, nil)
	if _, ok := s.HavingConj(query); !ok {
		t.Fatal("having conversion failed")
	}
	whereCl := constraints.Close(WhereConj(query))
	axioms := s.Axioms(whereCl)
	cl := constraints.Close(axioms)
	mx := constraints.V(s.AggVar(ir.AggMax, 1))
	if !cl.Implies(constraints.Atom{Op: ir.OpLeq, L: mx, R: constraints.C(value.Int(7))}) {
		t.Error("MAX(B) <= 7 not derived from WHERE B <= 7")
	}

	q2 := q(t, "SELECT A FROM R1 WHERE B = 3 GROUP BY A HAVING AVG(B) >= 0")
	s2 := NewSpace(q2, nil)
	if _, ok := s2.HavingConj(q2); !ok {
		t.Fatal("having conversion failed")
	}
	cl2 := constraints.Close(s2.Axioms(constraints.Close(WhereConj(q2))))
	av := constraints.V(s2.AggVar(ir.AggAvg, 1))
	if !cl2.Implies(constraints.Atom{Op: ir.OpEq, L: av, R: constraints.C(value.Int(3))}) {
		t.Error("AVG(B) = 3 not derived from WHERE B = 3")
	}
}

func TestCollectAggTermsSentinel(t *testing.T) {
	// An aggregate over an expression must block extremal pushdown.
	query := q(t, "SELECT A, MAX(B) FROM R1 GROUP BY A HAVING MAX(B) > 10")
	query.Select = append(query.Select, ir.SelectItem{Expr: &ir.Agg{
		Func: ir.AggSum,
		Arg:  &ir.Arith{Op: ir.ArithMul, L: &ir.ColRef{Col: 1}, R: &ir.ColRef{Col: 2}},
	}})
	n := Normalize(query)
	if len(n.Having) != 1 {
		t.Error("pushdown must be blocked by a non-simple aggregate")
	}
}

func TestSignedSumAxioms(t *testing.T) {
	// WHERE B >= 0: SUM(B) >= MAX(B) and SUM(B) >= 0.
	query := q(t, "SELECT A FROM R1 WHERE B >= 0 GROUP BY A HAVING SUM(B) >= 0 AND MAX(B) >= 0")
	s := NewSpace(query, nil)
	if _, ok := s.HavingConj(query); !ok {
		t.Fatal("having conversion failed")
	}
	cl := constraints.Close(s.Axioms(constraints.Close(WhereConj(query))))
	sum := constraints.V(s.AggVar(ir.AggSum, 1))
	mx := constraints.V(s.AggVar(ir.AggMax, 1))
	if !cl.Implies(constraints.Atom{Op: ir.OpGeq, L: sum, R: mx}) {
		t.Error("SUM >= MAX with non-negative values not derived")
	}
	if !cl.Implies(constraints.Atom{Op: ir.OpGeq, L: sum, R: constraints.C(value.Int(0))}) {
		t.Error("SUM >= 0 not derived")
	}

	// WHERE B <= -1 (strictly negative): SUM <= MIN and SUM <= -1.
	q2 := q(t, "SELECT A FROM R1 WHERE B <= -1 GROUP BY A HAVING SUM(B) < 0 AND MIN(B) < 0")
	s2 := NewSpace(q2, nil)
	if _, ok := s2.HavingConj(q2); !ok {
		t.Fatal("having conversion failed")
	}
	cl2 := constraints.Close(s2.Axioms(constraints.Close(WhereConj(q2))))
	sum2 := constraints.V(s2.AggVar(ir.AggSum, 1))
	mn2 := constraints.V(s2.AggVar(ir.AggMin, 1))
	if !cl2.Implies(constraints.Atom{Op: ir.OpLeq, L: sum2, R: mn2}) {
		t.Error("SUM <= MIN with non-positive values not derived")
	}
	if !cl2.Implies(constraints.Atom{Op: ir.OpLeq, L: sum2, R: constraints.C(value.Int(-1))}) {
		t.Error("SUM <= -1 not derived")
	}

	// Mixed-sign bounds must derive nothing about SUM vs MAX.
	q3 := q(t, "SELECT A FROM R1 WHERE B >= -5 GROUP BY A HAVING SUM(B) >= 0 AND MAX(B) >= 0")
	s3 := NewSpace(q3, nil)
	if _, ok := s3.HavingConj(q3); !ok {
		t.Fatal("having conversion failed")
	}
	cl3 := constraints.Close(s3.Axioms(constraints.Close(WhereConj(q3))))
	sum3 := constraints.V(s3.AggVar(ir.AggSum, 1))
	mx3 := constraints.V(s3.AggVar(ir.AggMax, 1))
	if cl3.Implies(constraints.Atom{Op: ir.OpGeq, L: sum3, R: mx3}) {
		t.Error("SUM >= MAX is unsound when values may be negative")
	}
}
