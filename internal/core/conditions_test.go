package core

// Targeted coverage of individual usability conditions and rewriting
// corners beyond the paper's worked examples.

import (
	"context"
	"strings"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/value"
)

func TestMultipleMappingsSelfJoinQuery(t *testing.T) {
	// Q self-joins R1; a view covering one R1 occurrence admits two 1-1
	// mappings, hence two distinct single-step rewritings.
	rw := newRewriter(t, map[string]string{
		"Wv": "SELECT A, B, C, D FROM R1 WHERE D = 1",
	}, Options{})
	q := buildQ(t, rw, "SELECT r.A, SUM(s.B) FROM R1 r, R1 s WHERE r.D = 1 AND s.D = 1 GROUP BY r.A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Wv"))
	if len(rws) != 2 {
		for _, r := range rws {
			t.Logf("got %s", r.Query.SQL())
		}
		t.Fatalf("want 2 rewritings (one per mapping), got %d", len(rws))
	}
	for _, r := range rws {
		for seed := int64(0); seed < 4; seed++ {
			verify(t, rw, q, r, r1r2DB(seed))
		}
	}
}

func TestViewOverViewRewriting(t *testing.T) {
	// V2 is defined over V1; a query phrased over V1 can be rewritten to
	// use V2 (the mapping matches V1 as a source).
	reg := ir.NewRegistry()
	full := ir.MultiSource{tables(), reg}
	v1, err := ir.NewViewDef("L1", ir.MustBuild("SELECT A, B, C, D FROM R1 WHERE D = 1", full))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v1); err != nil {
		t.Fatal(err)
	}
	v2, err := ir.NewViewDef("L2", ir.MustBuild("SELECT A, B, COUNT(C) FROM L1 GROUP BY A, B", full))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v2); err != nil {
		t.Fatal(err)
	}
	rw := &Rewriter{Views: reg}
	q := ir.MustBuild("SELECT A, COUNT(B) FROM L1 GROUP BY A", full)
	rws := mustRewriteOnce(t, rw, q, v2)
	if len(rws) == 0 {
		t.Fatal("query over L1 should rewrite onto L2")
	}
	for seed := int64(0); seed < 4; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestCountStarViewMatchesCountQuery(t *testing.T) {
	// COUNT(*) normalizes to COUNT over a column, so a COUNT(*) view
	// answers COUNT queries.
	rw := newRewriter(t, map[string]string{
		"Vstar": "SELECT A, B, COUNT(*) FROM R1 GROUP BY A, B",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, COUNT(*) FROM R1 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vstar"))
	if len(rws) == 0 {
		t.Fatal("COUNT(*) view should answer the COUNT(*) query")
	}
	for seed := int64(0); seed < 4; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestGroupColumnViaJoinEquality(t *testing.T) {
	// The query groups by a column of the covered table that the view
	// exposes only through an equal column (condition C2's "Conds(Q)
	// implies A = sigma(B_A)" with B_A != sigma^-1(A)).
	rw := newRewriter(t, map[string]string{
		"Veq": "SELECT C, D FROM R1, R2 WHERE A = C AND B = D",
	}, Options{})
	// A is not exposed, but A = C is enforced, and C is exposed.
	q := buildQ(t, rw, "SELECT A, SUM(B) FROM R1, R2 WHERE A = C AND B = D GROUP BY A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Veq"))
	if len(rws) == 0 {
		t.Fatal("equality-exposed grouping column should satisfy C2")
	}
	for seed := int64(0); seed < 4; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestResidualOverViewOutputs(t *testing.T) {
	// Conds' may constrain view outputs (second part of C3): the query
	// adds C = 1 on an exposed column.
	rw := newRewriter(t, map[string]string{
		"Vout": "SELECT A, C FROM R1 WHERE B = D",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, COUNT(C) FROM R1 WHERE B = D AND C = 1 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vout"))
	if len(rws) == 0 {
		t.Fatal("residual over exposed outputs should work")
	}
	if !strings.Contains(rws[0].Query.SQL(), "C = 1") {
		t.Errorf("residual missing: %s", rws[0].Query.SQL())
	}
	for seed := int64(0); seed < 4; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestInequalityPredicatesInViewAndQuery(t *testing.T) {
	// Both WHERE clauses use inequalities; C3's equivalence must still
	// hold: view B >= 1, query B >= 1 AND B <= 2.
	rw := newRewriter(t, map[string]string{
		"Vineq": "SELECT A, B, C, D FROM R1 WHERE B >= 1",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, MAX(C) FROM R1 WHERE B >= 1 AND B <= 2 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vineq"))
	if len(rws) == 0 {
		t.Fatal("inequality residual should work")
	}
	for seed := int64(0); seed < 4; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
	// A query WEAKER than the view must fail (view discarded B < 1).
	q2 := buildQ(t, rw, "SELECT A, MAX(C) FROM R1 WHERE B >= 0 GROUP BY A")
	if rws := mustRewriteOnce(t, rw, q2, mustView(t, rw, "Vineq")); len(rws) != 0 {
		t.Fatal("weaker query cannot use a stronger view")
	}
}

func TestAggViewMinOnlyCannotAnswerSum(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"Vmin": "SELECT A, MIN(B), COUNT(B) FROM R1 GROUP BY A, C",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(B) FROM R1 GROUP BY A")
	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vmin")); len(rws) != 0 {
		t.Fatal("MIN information cannot produce SUM")
	}
	// But MIN works.
	q2 := buildQ(t, rw, "SELECT A, MIN(B) FROM R1 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q2, mustView(t, rw, "Vmin"))
	if len(rws) == 0 {
		t.Fatal("MIN of MINs should work")
	}
	for seed := int64(0); seed < 4; seed++ {
		verify(t, rw, q2, rws[0], r1r2DB(seed))
	}
}

func TestHavingCountAggExtension(t *testing.T) {
	// COUNT appears only in the HAVING clause (the Section 3.3 extension
	// of condition C4 to GConds aggregation columns).
	rw := newRewriter(t, map[string]string{
		"Vh4": "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, MAX(B) FROM R1 GROUP BY A HAVING COUNT(C) > 2")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vh4"))
	if len(rws) == 0 {
		t.Fatal("HAVING-only COUNT should be computable from the view")
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestGlobalAggregateQueryOverGroupedView(t *testing.T) {
	// Q has no GROUP BY at all; the view's groups all coalesce into one.
	rw := newRewriter(t, map[string]string{
		"Vg2": "SELECT A, SUM(B), COUNT(B) FROM R1 GROUP BY A",
	}, Options{})
	q := buildQ(t, rw, "SELECT SUM(B), COUNT(C) FROM R1")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vg2"))
	if len(rws) == 0 {
		t.Fatal("global aggregate should coalesce all view groups")
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestPinnedGroupColumn(t *testing.T) {
	// The view groups by (A, B); the query pins B = 2 and groups by A
	// only: alignment via the pinned column.
	rw := newRewriter(t, map[string]string{
		"Vpin": "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B HAVING SUM(C) > 0",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(C) FROM R1 WHERE B = 2 GROUP BY A HAVING SUM(C) > 0")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vpin"))
	if len(rws) == 0 {
		t.Fatal("pinned view group column should align the groups")
	}
	for seed := int64(0); seed < 6; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestUnsatisfiableQueryRewrites(t *testing.T) {
	// An unsatisfiable query is equivalent to any empty-result rewriting.
	rw := newRewriter(t, map[string]string{
		"Vu": "SELECT A, B, C, D FROM R1",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(B) FROM R1 WHERE C = 1 AND C = 2 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vu"))
	if len(rws) == 0 {
		t.Fatal("unsatisfiable queries admit trivial rewritings")
	}
	for seed := int64(0); seed < 3; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestRewritingNotesAndSQLRendering(t *testing.T) {
	rw := newRewriter(t, map[string]string{"V1": telcoV1}, Options{})
	q := buildQ(t, rw, telcoQ)
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V1"))
	if len(rws) == 0 {
		t.Fatal("no rewriting")
	}
	r := rws[0]
	if len(r.Notes) == 0 {
		t.Error("rewritings should carry condition notes")
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "Conds'") && strings.Contains(n, "Year") {
			found = true
		}
	}
	if !found {
		t.Errorf("notes should name the residual by column: %v", r.Notes)
	}
	if !strings.Contains(r.SQL(), "SELECT") {
		t.Error("SQL rendering broken")
	}
}

func TestPaperFaithfulVaSharedAcrossAggregates(t *testing.T) {
	// Two scaled SUMs in one query share a single Va auxiliary view.
	rw := newRewriter(t, map[string]string{
		"Vg3": "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{PaperFaithful: true})
	q := buildQ(t, rw, "SELECT A, B, SUM(E), SUM(F) FROM R1, R2 GROUP BY A, B")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vg3"))
	if len(rws) == 0 {
		t.Fatal("guarded Va rewriting should exist")
	}
	r := rws[0]
	if len(r.Aux) != 1 {
		t.Fatalf("one shared Va expected, got %d", len(r.Aux))
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q, r, r1r2DB(seed))
	}
}

func TestDistinctQueryOverConjunctiveView(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"Vd2": "SELECT A, B, C, D FROM R1 WHERE D = 1",
	}, Options{})
	q := buildQ(t, rw, "SELECT DISTINCT A, B FROM R1 WHERE D = 1")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vd2"))
	if len(rws) == 0 {
		t.Fatal("DISTINCT query over a plain view works under bag semantics")
	}
	if !rws[0].Query.Distinct {
		t.Error("DISTINCT must be preserved")
	}
	for seed := int64(0); seed < 4; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestStringConstantsInConditions(t *testing.T) {
	ctx := context.Background()
	src := ir.MapSource{"T": {"K", "City", "Amt"}}
	reg := ir.NewRegistry()
	v, err := ir.NewViewDef("Vs", ir.MustBuild("SELECT K, City, Amt FROM T WHERE City = 'nyc'", src))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v); err != nil {
		t.Fatal(err)
	}
	rw := &Rewriter{Views: reg}
	q := ir.MustBuild("SELECT K, SUM(Amt) FROM T WHERE City = 'nyc' AND Amt > 10 GROUP BY K", src)
	rws := mustRewriteOnce(t, rw, q, v)
	if len(rws) == 0 {
		t.Fatal("string-constant slicing should work")
	}
	db := engine.NewDB()
	rel := engine.NewRelation("K", "City", "Amt")
	rel.Add(value.Int(1), value.Str("nyc"), value.Int(20))
	rel.Add(value.Int(1), value.Str("nyc"), value.Int(5))
	rel.Add(value.Int(2), value.Str("sf"), value.Int(50))
	db.Put("T", rel)
	want, err := engine.NewEvaluator(db, reg).ExecContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.NewEvaluator(db, reg).ExecContext(ctx, rws[0].Query)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.ResultsEqualBag(want, got) {
		t.Fatalf("string-sliced rewriting differs:\n%s\nvs\n%s", want.Sorted(), got.Sorted())
	}
	// A query on a different city must be refused.
	q2 := ir.MustBuild("SELECT K, SUM(Amt) FROM T WHERE City = 'sf' GROUP BY K", src)
	if rws := mustRewriteOnce(t, rw, q2, v); len(rws) != 0 {
		t.Fatal("wrong slice must be refused")
	}
}

// Every paper-faithful rewriting must also exist (as an equivalent) in
// the default mode: the faithful operations are a strict subset.
func TestFaithfulSubsetOfDefault(t *testing.T) {
	cases := []struct{ view, query string }{
		{"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B", "SELECT A, B, SUM(E) FROM R1, R2 GROUP BY A, B"},
		{"SELECT A, C, COUNT(D) FROM R1 WHERE B = D GROUP BY A, C", "SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E"},
		{"SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B", "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B"},
	}
	for ci, tc := range cases {
		pf := newRewriter(t, map[string]string{"V": tc.view}, Options{PaperFaithful: true})
		def := newRewriter(t, map[string]string{"V": tc.view}, Options{})
		q1 := buildQ(t, pf, tc.query)
		q2 := buildQ(t, def, tc.query)
		nPF := len(mustRewriteOnce(t, pf, q1, mustView(t, pf, "V")))
		nDef := len(mustRewriteOnce(t, def, q2, mustView(t, def, "V")))
		if nPF > 0 && nDef == 0 {
			t.Errorf("case %d: faithful mode found a rewriting the default mode missed", ci)
		}
	}
}
