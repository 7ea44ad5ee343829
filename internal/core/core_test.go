package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"aggview/internal/engine"
	"aggview/internal/ir"
	"aggview/internal/keys"
	"aggview/internal/schema"
	"aggview/internal/value"
)

// tables is the schema shared by the paper's examples.
func tables() ir.MapSource {
	return ir.MapSource{
		"R1":            {"A", "B", "C", "D"},
		"R2":            {"E", "F"},
		"Calls":         {"Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge"},
		"Calling_Plans": {"Plan_Id", "Plan_Name"},
	}
}

// newRewriter builds a rewriter over the given view definitions
// (name -> SQL).
func newRewriter(t *testing.T, views map[string]string, opts Options) *Rewriter {
	t.Helper()
	reg := ir.NewRegistry()
	src := ir.MultiSource{tables(), reg}
	names := make([]string, 0, len(views))
	for name := range views {
		names = append(names, name)
	}
	// Deterministic registration order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		def := ir.MustBuild(views[name], src)
		v, err := ir.NewViewDef(name, def)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return &Rewriter{Views: reg, Opts: opts}
}

// mustRewriteOnce is RewriteOnceContext without a deadline, failing the
// test on error.
func mustRewriteOnce(t testing.TB, rw *Rewriter, q *ir.Query, v *ir.ViewDef) []*Rewriting {
	t.Helper()
	rws, err := rw.RewriteOnceContext(context.Background(), q, v)
	if err != nil {
		t.Fatal(err)
	}
	return rws
}

// mustRewritings is RewritingsContext without a deadline, failing the
// test on error.
func mustRewritings(t testing.TB, rw *Rewriter, q *ir.Query) []*Rewriting {
	t.Helper()
	rws, err := rw.RewritingsContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return rws
}

func buildQ(t *testing.T, rw *Rewriter, sql string) *ir.Query {
	t.Helper()
	return ir.MustBuild(sql, ir.MultiSource{tables(), rw.Views})
}

// verify executes the original query and a rewriting on a database and
// checks multiset equivalence (set equivalence for SetOnly rewritings).
func verify(t *testing.T, rw *Rewriter, q *ir.Query, r *Rewriting, db *engine.DB) {
	ctx := context.Background()
	t.Helper()
	reg := ir.NewRegistry()
	for _, v := range rw.Views.All() {
		if err := reg.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range r.Aux {
		if err := reg.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	want, err := engine.NewEvaluator(db, reg).ExecContext(ctx, q)
	if err != nil {
		t.Fatalf("executing original: %v", err)
	}
	got, err := engine.NewEvaluator(db, reg).ExecContext(ctx, r.Query)
	if err != nil {
		t.Fatalf("executing rewriting %s: %v", r.SQL(), err)
	}
	if r.SetOnly {
		wantS, _ := engine.NewEvaluator(db, reg).ExecContext(ctx, distinctOf(q))
		gotS, _ := engine.NewEvaluator(db, reg).ExecContext(ctx, distinctOf(r.Query))
		if !engine.ResultsEqualBag(wantS, gotS) {
			t.Fatalf("set-semantics rewriting differs\noriginal: %s\nrewritten: %s\nwant:\n%s\ngot:\n%s",
				q.SQL(), r.SQL(), wantS.Sorted(), gotS.Sorted())
		}
		return
	}
	if !engine.ResultsEqualBag(want, got) {
		t.Fatalf("rewriting is not multiset-equivalent\noriginal: %s\nrewritten: %s\nwant:\n%s\ngot:\n%s",
			q.SQL(), r.SQL(), want.Sorted(), got.Sorted())
	}
}

func distinctOf(q *ir.Query) *ir.Query {
	c := q.Clone()
	c.Distinct = true
	return c
}

func iv(n int64) value.Value { return value.Int(n) }

// r1r2DB fills R1(A,B,C,D) and R2(E,F) with pseudo-random small values,
// including duplicate rows so multiset defects surface.
func r1r2DB(seed int64) *engine.DB {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDB()
	r1 := engine.NewRelation("A", "B", "C", "D")
	for i := 0; i < 30; i++ {
		row := []value.Value{iv(int64(rng.Intn(3))), iv(int64(rng.Intn(4))), iv(int64(rng.Intn(3))), iv(int64(rng.Intn(4)))}
		r1.Add(row...)
		if rng.Intn(3) == 0 {
			r1.Add(row...) // duplicates
		}
	}
	db.Put("R1", r1)
	r2 := engine.NewRelation("E", "F")
	for i := 0; i < 12; i++ {
		r2.Add(iv(int64(rng.Intn(4))), iv(int64(rng.Intn(3))))
	}
	db.Put("R2", r2)
	return db
}

// ---- Example 1.1: the motivating telco example ----

func telcoDB(seed int64, nCalls int) *engine.DB {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDB()
	plans := engine.NewRelation("Plan_Id", "Plan_Name")
	for p := 0; p < 5; p++ {
		plans.Add(iv(int64(p)), value.Str("plan"+string(rune('A'+p))))
	}
	db.Put("Calling_Plans", plans)
	calls := engine.NewRelation("Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge")
	for i := 0; i < nCalls; i++ {
		calls.Add(iv(int64(i)), iv(int64(rng.Intn(50))), iv(int64(rng.Intn(5))),
			iv(int64(1+rng.Intn(28))), iv(int64(1+rng.Intn(12))), iv(int64(1994+rng.Intn(3))),
			iv(int64(rng.Intn(100))))
	}
	db.Put("Calls", calls)
	return db
}

const telcoQ = `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
	FROM Calls, Calling_Plans
	WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
	GROUP BY Calling_Plans.Plan_Id, Plan_Name
	HAVING SUM(Charge) < 1000000`

const telcoV1 = `SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge)
	FROM Calls, Calling_Plans
	WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
	GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`

func TestExample11Telco(t *testing.T) {
	rw := newRewriter(t, map[string]string{"V1": telcoV1}, Options{})
	q := buildQ(t, rw, telcoQ)
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V1"))
	if len(rws) == 0 {
		t.Fatal("Example 1.1: view V1 must be usable")
	}
	r := rws[0]
	if r.Query.Tables[0].Source != "V1" || len(r.Query.Tables) != 1 {
		t.Errorf("rewriting should range over V1 only: %s", r.Query.SQL())
	}
	if !strings.Contains(r.Query.SQL(), "Year = 1995") {
		t.Errorf("residual Year = 1995 missing: %s", r.Query.SQL())
	}
	verify(t, rw, q, r, telcoDB(1, 3000))
	verify(t, rw, q, r, telcoDB(2, 500))
}

func mustView(t *testing.T, rw *Rewriter, name string) *ir.ViewDef {
	t.Helper()
	v, ok := rw.Views.Get(name)
	if !ok {
		t.Fatalf("no view %s", name)
	}
	return v
}

// ---- Example 3.1: conjunctive view, aggregation query ----

func TestExample31(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"V31": "SELECT C, D FROM R1, R2 WHERE A = C AND B = D",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(B) FROM R1, R2 WHERE A = C AND B = 6 AND D = 6 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V31"))
	if len(rws) == 0 {
		t.Fatal("Example 3.1: view must be usable")
	}
	r := rws[0]
	if len(r.Query.Tables) != 1 || r.Query.Tables[0].Source != "V31" {
		t.Errorf("rewriting should use only the view: %s", r.Query.SQL())
	}
	// The residual is D = 6 (expressed over view outputs).
	if len(r.Query.Where) != 1 {
		t.Errorf("expected single residual predicate, got %s", r.Query.SQL())
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q, r, r1r2DB(seed))
	}
}

func TestExample31ViewTooStrict(t *testing.T) {
	// A view that filters tuples the query needs is unusable.
	rw := newRewriter(t, map[string]string{
		"W": "SELECT A, B, C, D FROM R1 WHERE B = 7",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(B) FROM R1 WHERE B = 6 GROUP BY A")
	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "W")); len(rws) != 0 {
		t.Fatalf("view enforcing B=7 cannot answer B=6 query: %s", rws[0].Query.SQL())
	}
}

func TestProjectedOutColumnBlocksUsability(t *testing.T) {
	// The view projects out D, which the query constrains: condition C3
	// fails (no expressible residual).
	rw := newRewriter(t, map[string]string{
		"W": "SELECT A, B FROM R1",
	}, Options{})
	q := buildQ(t, rw, "SELECT A FROM R1 WHERE D = 3")
	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "W")); len(rws) != 0 {
		t.Fatal("residual over projected-out column must fail")
	}
	// But a query constraining only exposed columns works.
	q2 := buildQ(t, rw, "SELECT A FROM R1 WHERE B = 3")
	rws := mustRewriteOnce(t, rw, q2, mustView(t, rw, "W"))
	if len(rws) != 1 {
		t.Fatal("exposed-column residual should work")
	}
	for seed := int64(0); seed < 3; seed++ {
		verify(t, rw, q2, rws[0], r1r2DB(seed))
	}
}

// ---- Example 4.1: coalescing subgroups ----

func TestExample41Coalescing(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"V41": "SELECT A, C, COUNT(D) FROM R1 WHERE B = D GROUP BY A, C",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V41"))
	if len(rws) == 0 {
		t.Fatal("Example 4.1: view must be usable")
	}
	r := rws[0]
	// The rewriting coalesces subgroups: COUNT becomes SUM of the view's
	// count column.
	if !strings.Contains(r.Query.SQL(), "SUM(") {
		t.Errorf("COUNT should rewrite to SUM of counts: %s", r.Query.SQL())
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q, r, r1r2DB(seed))
	}
}

// ---- Example 4.2: recovery of lost multiplicities ----

func TestExample42MultiplicityRecovery(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		// V1 lacks a COUNT column: unusable for SUM over R2.E.
		"V42a": "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B",
		// V2 retains COUNT(C): usable.
		"V42b": "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(E) FROM R1, R2 GROUP BY A")

	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V42a")); len(rws) != 0 {
		t.Fatalf("view without COUNT cannot recover multiplicities: %s", rws[0].Query.SQL())
	}
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V42b"))
	if len(rws) == 0 {
		t.Fatal("Example 4.2: V2 must be usable")
	}
	for seed := int64(0); seed < 8; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

// TestExample42PublishedConstructionIsWrong pins the defect documented
// in DESIGN.md: the paper's literal Q' (join V2 and Va, multiply
// Cnt_Va outside) double-counts when a query group spans several view
// groups. The counterexample is R1 = {(a,b1,.,.), (a,b2,.,.)},
// R2 = {(5,f)}: Q yields 10, the published Q' yields 20.
func TestExample42PublishedConstructionIsWrong(t *testing.T) {
	ctx := context.Background()
	src := ir.MapSource{
		"R1": {"A", "B", "C", "D"},
		"R2": {"E", "F"},
		"V2": {"A", "B", "S", "N"},
		"Va": {"A4", "Cnt_Va"},
	}
	db := engine.NewDB()
	r1 := engine.NewRelation("A", "B", "C", "D")
	r1.Add(iv(1), iv(10), iv(0), iv(0))
	r1.Add(iv(1), iv(20), iv(0), iv(0))
	db.Put("R1", r1)
	r2 := engine.NewRelation("E", "F")
	r2.Add(iv(5), iv(0))
	db.Put("R2", r2)

	reg := ir.NewRegistry()
	v2, err := ir.NewViewDef("V2", ir.MustBuild("SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B", src))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(v2); err != nil {
		t.Fatal(err)
	}
	va, err := ir.NewViewDef("Va", ir.MustBuild("SELECT A, SUM(N) FROM V2 GROUP BY A", ir.MultiSource{src, reg}))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(va); err != nil {
		t.Fatal(err)
	}

	q := ir.MustBuild("SELECT A, SUM(E) FROM R1, R2 GROUP BY A", src)
	want, err := engine.NewEvaluator(db, reg).ExecContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 1 || want.Tuples[0][1].AsInt() != 10 {
		t.Fatalf("original query: %s", want)
	}

	// The paper's literal Q' from Example 4.2.
	paperQ := ir.MustBuild(
		"SELECT V2.A, Cnt_Va * SUM(E) FROM V2, Va, R2 WHERE V2.A = Va.A4 GROUP BY V2.A, Cnt_Va",
		ir.MultiSource{src, reg})
	got, err := engine.NewEvaluator(db, reg).ExecContext(ctx, paperQ)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("paper Q': %s", got)
	}
	if got.Tuples[0][1].AsInt() != 20 {
		t.Fatalf("expected the published construction to double-count (20), got %v", got.Tuples[0][1])
	}
	if engine.ResultsEqualBag(want, got) {
		t.Fatal("the counterexample should distinguish Q from the published Q'")
	}

	// Our corrected rewriting must handle the same database.
	rw := newRewriter(t, map[string]string{
		"V42b": "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{})
	q2 := buildQ(t, rw, "SELECT A, SUM(E) FROM R1, R2 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q2, mustView(t, rw, "V42b"))
	if len(rws) == 0 {
		t.Fatal("corrected rewriting must exist")
	}
	verify(t, rw, q2, rws[0], db)
}

// In paper-faithful mode the unguarded Va construction (Example 4.2's
// shape) must be refused rather than emitted incorrectly.
func TestExample42PaperFaithfulRefuses(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"V42b": "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{PaperFaithful: true})
	q := buildQ(t, rw, "SELECT A, SUM(E) FROM R1, R2 GROUP BY A")
	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V42b")); len(rws) != 0 {
		t.Fatalf("paper-faithful mode must refuse the unguarded Va construction: %s", rws[0].SQL())
	}
}

// When the query's groups determine the view's groups, the guarded Va
// construction applies and must be correct.
func TestPaperFaithfulVaGuarded(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"Vg": "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{PaperFaithful: true})
	// Q groups by both A and B: no coalescing, guard holds.
	q := buildQ(t, rw, "SELECT A, B, SUM(E) FROM R1, R2 GROUP BY A, B")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vg"))
	if len(rws) == 0 {
		t.Fatal("guarded Va construction should apply")
	}
	r := rws[0]
	if len(r.Aux) != 1 || !strings.Contains(r.Aux[0].Name, "_va") {
		t.Fatalf("expected one auxiliary Va view, got %v", r.Aux)
	}
	if !strings.Contains(r.Query.SQL(), "Cnt_Va * SUM(") {
		t.Errorf("expected outside multiplication: %s", r.Query.SQL())
	}
	for seed := int64(0); seed < 8; seed++ {
		verify(t, rw, q, r, r1r2DB(seed))
	}
}

// ---- Example 4.4: constraining an aggregated view column ----

func TestExample44ConstrainedAggColumn(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"V44": "SELECT A, E, F, SUM(B) FROM R1, R2 GROUP BY A, E, F",
	}, Options{})
	// Q constrains B (aggregated away in the view): unusable.
	q := buildQ(t, rw, "SELECT A, E, SUM(B) FROM R1, R2 WHERE B = F GROUP BY A, E")
	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V44")); len(rws) != 0 {
		t.Fatalf("Example 4.4: constrained aggregated column must block usability: %s", rws[0].Query.SQL())
	}
	// Without the WHERE clause the view becomes usable.
	q2 := buildQ(t, rw, "SELECT A, E, SUM(B) FROM R1, R2 GROUP BY A, E")
	rws := mustRewriteOnce(t, rw, q2, mustView(t, rw, "V44"))
	if len(rws) == 0 {
		t.Fatal("Example 4.4: without the predicate the view is usable")
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q2, rws[0], r1r2DB(seed))
	}
}

// ---- Example 4.5: aggregation view, conjunctive query ----

func TestExample45AggViewConjunctiveQuery(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"V45": "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, B FROM R1")
	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V45")); len(rws) != 0 {
		t.Fatalf("Section 4.5: aggregation views cannot answer conjunctive queries under bag semantics: %s", rws[0].Query.SQL())
	}
}

// ---- MIN/MAX and AVG rewritings ----

func TestMinMaxThroughAggView(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"Vm": "SELECT A, MIN(B), MAX(B), COUNT(B) FROM R1 GROUP BY A, C",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, MIN(B), MAX(B) FROM R1 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vm"))
	if len(rws) == 0 {
		t.Fatal("MIN/MAX of MIN/MAX across coalesced groups must work")
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestMinOverBareGroupColumn(t *testing.T) {
	// MIN over a column the view exposes bare (a grouping column).
	rw := newRewriter(t, map[string]string{
		"Vb": "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, MIN(B), COUNT(C) FROM R1 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vb"))
	if len(rws) == 0 {
		t.Fatal("MIN over exposed grouping column must work")
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestAvgReconstruction(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"Vavg": "SELECT A, SUM(B), COUNT(B) FROM R1 GROUP BY A, C",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, AVG(B) FROM R1 GROUP BY A")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vavg"))
	if len(rws) == 0 {
		t.Fatal("AVG = SUM/COUNT reconstruction must work")
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
	// Paper-faithful mode refuses (needs division).
	rwPF := newRewriter(t, map[string]string{
		"Vavg": "SELECT A, SUM(B), COUNT(B) FROM R1 GROUP BY A, C",
	}, Options{PaperFaithful: true})
	q2 := buildQ(t, rwPF, "SELECT A, AVG(B) FROM R1 GROUP BY A")
	if rws := mustRewriteOnce(t, rwPF, q2, mustView(t, rwPF, "Vavg")); len(rws) != 0 {
		t.Fatal("paper-faithful mode cannot rebuild AVG")
	}
}

// TestSumFromAvgTimesCount pins the refusal of section 4.4's SUM = AVG x
// COUNT: true over the reals, the product rounds in float64 where the sum
// it stands for is exact, so a view exporting AVG(B) and COUNT(B) but no
// SUM(B) answers neither SUM(B) nor AVG(B).
func TestSumFromAvgTimesCount(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"Vac": "SELECT A, AVG(B), COUNT(B) FROM R1 GROUP BY A, C",
	}, Options{})
	for _, sql := range []string{"SELECT A, SUM(B) FROM R1 GROUP BY A", "SELECT A, AVG(B) FROM R1 GROUP BY A"} {
		q := buildQ(t, rw, sql)
		if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vac")); len(rws) != 0 {
			t.Fatalf("%s: Vac must not answer it, got %s", sql, rws[0].SQL())
		}
	}
}

// ---- HAVING handling ----

func TestHavingMovedEnablesRewriting(t *testing.T) {
	// HAVING A > 1 moves to WHERE during normalization; the view exposes
	// A, so the rewriting applies the moved predicate as a residual.
	rw := newRewriter(t, map[string]string{
		"Vh": "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, COUNT(C) FROM R1 GROUP BY A HAVING A > 1")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vh"))
	if len(rws) == 0 {
		t.Fatal("moved HAVING predicate should not block usability")
	}
	for seed := int64(0); seed < 5; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestViewWithHavingAlignedGroups(t *testing.T) {
	// View keeps groups with COUNT(C) > 1; query asks the same at the
	// same granularity plus more.
	rw := newRewriter(t, map[string]string{
		"Vvh": "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1 AND SUM(C) > 2")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vvh"))
	if len(rws) == 0 {
		t.Fatal("aligned-group HAVING view must be usable")
	}
	for seed := int64(0); seed < 8; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestViewWithHavingCoalescingBlocked(t *testing.T) {
	// The query coalesces the view's (A,B) groups into A groups; groups
	// eliminated by the view's HAVING could be needed.
	rw := newRewriter(t, map[string]string{
		"Vvh2": "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B HAVING SUM(C) > 2",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(C) FROM R1 GROUP BY A")
	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vvh2")); len(rws) != 0 {
		t.Fatalf("coalescing past a view HAVING must be blocked: %s", rws[0].Query.SQL())
	}
}

func TestViewHavingWeakerThanQuery(t *testing.T) {
	// View filters COUNT > 1; query wants COUNT > 3 at the same
	// granularity: residual COUNT > 3 remains.
	rw := newRewriter(t, map[string]string{
		"Vw": "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 3")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vw"))
	if len(rws) == 0 {
		t.Fatal("stronger query HAVING should leave a residual")
	}
	for seed := int64(0); seed < 8; seed++ {
		verify(t, rw, q, rws[0], r1r2DB(seed))
	}
}

func TestViewHavingStrongerThanQueryBlocked(t *testing.T) {
	// View filters COUNT > 3 but query wants COUNT > 1: the view
	// discarded needed groups.
	rw := newRewriter(t, map[string]string{
		"Vs": "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 3",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1")
	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vs")); len(rws) != 0 {
		t.Fatalf("view HAVING stronger than query's must block: %s", rws[0].Query.SQL())
	}
}

// ---- multiple views (Theorem 3.2) ----

func TestMultipleViewsIterative(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"W1": "SELECT A, B, C, D FROM R1 WHERE B = 2",
		"W2": "SELECT E, F FROM R2 WHERE F = 3",
	}, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(E) FROM R1, R2 WHERE B = 2 AND F = 3 GROUP BY A")
	all := mustRewritings(t, rw, q)
	// Expected: {W1}, {W2}, {W1,W2} in some order — at least 3 distinct
	// rewritings, one of which uses both views.
	if len(all) < 3 {
		for _, r := range all {
			t.Logf("got: %s (used %v)", r.Query.SQL(), r.Used)
		}
		t.Fatalf("expected at least 3 rewritings, got %d", len(all))
	}
	both := false
	for _, r := range all {
		if len(r.Used) == 2 {
			both = true
		}
		for seed := int64(0); seed < 3; seed++ {
			verify(t, rw, q, r, r1r2DB(seed))
		}
	}
	if !both {
		t.Error("no rewriting uses both views")
	}
}

func TestChurchRosser(t *testing.T) {
	// Applying the views in either order must reach the same set of
	// canonical rewritings (Theorem 3.2 part 2).
	viewSQL := map[string]string{
		"W1": "SELECT A, B, C, D FROM R1 WHERE B = 2",
		"W2": "SELECT E, F FROM R2 WHERE F = 3",
	}
	rw := newRewriter(t, viewSQL, Options{})
	q := buildQ(t, rw, "SELECT A, SUM(E) FROM R1, R2 WHERE B = 2 AND F = 3 GROUP BY A")

	w1 := mustView(t, rw, "W1")
	w2 := mustView(t, rw, "W2")

	// Order 1: W1 then W2. Order 2: W2 then W1.
	keys1 := map[string]bool{}
	for _, r1 := range mustRewriteOnce(t, rw, q, w1) {
		for _, r2 := range mustRewriteOnce(t, rw, r1.Query, w2) {
			keys1[canonicalKey(r2.Query)] = true
		}
	}
	keys2 := map[string]bool{}
	for _, r1 := range mustRewriteOnce(t, rw, q, w2) {
		for _, r2 := range mustRewriteOnce(t, rw, r1.Query, w1) {
			keys2[canonicalKey(r2.Query)] = true
		}
	}
	if len(keys1) == 0 || len(keys2) == 0 {
		t.Fatal("both orders must produce rewritings")
	}
	if len(keys1) != len(keys2) {
		t.Fatalf("order-dependent rewriting sets: %d vs %d", len(keys1), len(keys2))
	}
	for k := range keys1 {
		if !keys2[k] {
			t.Errorf("rewriting missing from the other order: %s", k)
		}
	}
}

func TestSameViewTwice(t *testing.T) {
	// A self-join query can use the same view for both occurrences.
	rw := newRewriter(t, map[string]string{
		"Wv": "SELECT A, B, C, D FROM R1 WHERE B = 2",
	}, Options{})
	q := buildQ(t, rw, "SELECT r.A, SUM(s.A) FROM R1 r, R1 s WHERE r.B = 2 AND s.B = 2 GROUP BY r.A")
	all := mustRewritings(t, rw, q)
	usedTwice := false
	for _, r := range all {
		if len(r.Used) == 2 {
			usedTwice = true
		}
		for seed := int64(0); seed < 3; seed++ {
			verify(t, rw, q, r, r1r2DB(seed))
		}
	}
	if !usedTwice {
		t.Error("the view should be usable for both occurrences")
	}
}

// ---- Section 5: sets and keys ----

func keyedCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	c := schema.NewCatalog()
	if err := c.AddTable(&schema.Table{
		Name:    "R1",
		Columns: []string{"A", "B", "C", "D"},
		Keys:    [][]string{{"A"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(&schema.Table{
		Name:    "R2",
		Columns: []string{"E", "F"},
		Keys:    [][]string{{"E"}},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExample51SetSemantics(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"V51": "SELECT r.A, s.A FROM R1 r, R1 s WHERE r.B = s.C",
	}, Options{})
	rw.Meta = keys.CatalogMeta{Catalog: keyedCatalog(t)}
	q := buildQ(t, rw, "SELECT A FROM R1 WHERE B = C")
	rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V51"))
	if len(rws) == 0 {
		t.Fatal("Example 5.1: many-to-1 mapping must be found with key metadata")
	}
	r := rws[0]
	if !r.SetOnly {
		t.Error("the rewriting is justified by set semantics")
	}
	if len(r.Query.Tables) != 1 || r.Query.Tables[0].Source != "V51" {
		t.Errorf("rewriting should use only V51: %s", r.Query.SQL())
	}
	// Keyed data: A determines the row.
	db := engine.NewDB()
	r1 := engine.NewRelation("A", "B", "C", "D")
	r1.Add(iv(1), iv(5), iv(5), iv(0))
	r1.Add(iv(2), iv(5), iv(7), iv(0))
	r1.Add(iv(3), iv(7), iv(5), iv(0))
	db.Put("R1", r1)
	db.Put("R2", engine.NewRelation("E", "F"))
	verify(t, rw, q, r, db)

	// Without metadata the view is unusable (paper's closing remark on
	// Example 5.1).
	rwNoMeta := newRewriter(t, map[string]string{
		"V51": "SELECT r.A, s.A FROM R1 r, R1 s WHERE r.B = s.C",
	}, Options{})
	q2 := buildQ(t, rwNoMeta, "SELECT A FROM R1 WHERE B = C")
	if rws := mustRewriteOnce(t, rwNoMeta, q2, mustView(t, rwNoMeta, "V51")); len(rws) != 0 {
		t.Fatalf("without keys the many-to-1 mapping is invalid: %s", rws[0].Query.SQL())
	}
}

func TestDistinctViewOnlyUsableUnderSetSemantics(t *testing.T) {
	views := map[string]string{"Vd": "SELECT DISTINCT A, B, C, D FROM R1"}
	rw := newRewriter(t, views, Options{})
	q := buildQ(t, rw, "SELECT A, B FROM R1")
	if rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "Vd")); len(rws) != 0 {
		t.Fatal("a DISTINCT view loses multiplicities")
	}
	// With keys (R1 is a set anyway) and a DISTINCT query, it works.
	rw2 := newRewriter(t, views, Options{})
	rw2.Meta = keys.CatalogMeta{Catalog: keyedCatalog(t)}
	q2 := buildQ(t, rw2, "SELECT DISTINCT A, B FROM R1")
	rws := mustRewriteOnce(t, rw2, q2, mustView(t, rw2, "Vd"))
	if len(rws) == 0 {
		t.Fatal("set semantics should admit the DISTINCT view")
	}
	db := r1r2DB(5)
	verify(t, rw2, q2, rws[0], db)
}

func TestMaxRewritingsCap(t *testing.T) {
	rw := newRewriter(t, map[string]string{
		"W1": "SELECT A, B, C, D FROM R1",
		"W2": "SELECT E, F FROM R2",
	}, Options{MaxRewritings: 1})
	q := buildQ(t, rw, "SELECT A, SUM(E) FROM R1, R2 GROUP BY A")
	if got := len(mustRewritings(t, rw, q)); got != 1 {
		t.Fatalf("cap not respected: %d", got)
	}
}

// ---- randomized equivalence sweep ----

// TestRandomizedEquivalence runs a corpus of query/view pairs over many
// random databases; every rewriting produced must be multiset-
// equivalent (Theorems 3.1 and 4.1).
func TestRandomizedEquivalence(t *testing.T) {
	cases := []struct{ view, query string }{
		{"SELECT A, B, C, D FROM R1 WHERE B = 2", "SELECT A, COUNT(B) FROM R1 WHERE B = 2 AND C = 1 GROUP BY A"},
		{"SELECT C, D FROM R1, R2 WHERE A = C AND B = D", "SELECT A, SUM(B) FROM R1, R2 WHERE A = C AND B = 2 AND D = 2 GROUP BY A"},
		{"SELECT A, C, COUNT(D) FROM R1 WHERE B = D GROUP BY A, C", "SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E"},
		{"SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B", "SELECT A, SUM(E) FROM R1, R2 GROUP BY A"},
		{"SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B", "SELECT A, SUM(C), COUNT(D) FROM R1 GROUP BY A"},
		{"SELECT A, MIN(B), MAX(B), COUNT(B) FROM R1 GROUP BY A, D", "SELECT A, MIN(B), MAX(B), COUNT(C) FROM R1 GROUP BY A"},
		{"SELECT A, SUM(B), COUNT(B) FROM R1 WHERE C = 1 GROUP BY A, D", "SELECT A, AVG(B) FROM R1 WHERE C = 1 GROUP BY A"},
		{"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B", "SELECT A, MAX(B), COUNT(D) FROM R1 GROUP BY A"},
		{"SELECT A, B, D FROM R1 WHERE C = 2", "SELECT A, MIN(D) FROM R1 WHERE C = 2 AND B = 1 GROUP BY A"},
		{"SELECT A, C, D FROM R1 WHERE A = B", "SELECT A, SUM(E) FROM R1, R2 WHERE A = B AND D = E GROUP BY A"},
		{"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1", "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 2"},
		{"SELECT E, COUNT(F) FROM R2 GROUP BY E", "SELECT E, COUNT(F) FROM R2 GROUP BY E"},
	}
	for ci, tc := range cases {
		rw := newRewriter(t, map[string]string{"V": tc.view}, Options{})
		q := buildQ(t, rw, tc.query)
		rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V"))
		if len(rws) == 0 {
			t.Errorf("case %d: no rewriting for\n  view:  %s\n  query: %s", ci, tc.view, tc.query)
			continue
		}
		for _, r := range rws {
			for seed := int64(0); seed < 6; seed++ {
				verify(t, rw, q, r, r1r2DB(seed*31+int64(ci)))
			}
		}
	}
}

// TestRandomizedEquivalencePaperFaithful repeats the sweep in
// paper-faithful mode: anything emitted must still be equivalent.
func TestRandomizedEquivalencePaperFaithful(t *testing.T) {
	cases := []struct{ view, query string }{
		{"SELECT A, B, C, D FROM R1 WHERE B = 2", "SELECT A, COUNT(B) FROM R1 WHERE B = 2 AND C = 1 GROUP BY A"},
		{"SELECT A, C, COUNT(D) FROM R1 WHERE B = D GROUP BY A, C", "SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E"},
		{"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B", "SELECT A, B, SUM(E) FROM R1, R2 GROUP BY A, B"},
		{"SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B", "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B"},
	}
	for ci, tc := range cases {
		rw := newRewriter(t, map[string]string{"V": tc.view}, Options{PaperFaithful: true})
		q := buildQ(t, rw, tc.query)
		rws := mustRewriteOnce(t, rw, q, mustView(t, rw, "V"))
		if len(rws) == 0 {
			t.Errorf("case %d: no paper-faithful rewriting", ci)
			continue
		}
		for _, r := range rws {
			for seed := int64(0); seed < 6; seed++ {
				verify(t, rw, q, r, r1r2DB(seed*17+int64(ci)))
			}
		}
	}
}
