package advisor

import (
	"context"
	"strings"
	"testing"

	"aggview/internal/ir"
)

func src() ir.MapSource {
	return ir.MapSource{
		"Calls":         {"Call_Id", "Plan_Id", "Month", "Year", "Charge"},
		"Calling_Plans": {"Plan_Id", "Plan_Name"},
	}
}

// recommend is RecommendContext without a deadline, failing the test on
// error.
func recommend(t *testing.T, a *Advisor, w Workload, budgetRows float64) []Recommendation {
	t.Helper()
	recs, err := a.RecommendContext(context.Background(), w, budgetRows)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func q(t *testing.T, sql string) *ir.Query {
	t.Helper()
	return ir.MustBuild(sql, src())
}

// rows is the cost model's row counts: a million calls over ten plans.
func rows(name string) (int, bool) {
	n, ok := map[string]int{"Calls": 1e6, "Calling_Plans": 10}[name]
	return n, ok
}

func TestSingleQueryCandidate(t *testing.T) {
	a := &Advisor{Rows: rows}
	w := Workload{{Query: q(t, "SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id")}}
	recs := recommend(t, a, w, 0)
	if len(recs) == 0 {
		t.Fatal("expected a recommendation")
	}
	r := recs[0]
	if r.Benefit <= 0 || len(r.Helps) != 1 {
		t.Fatalf("recommendation: %+v", r)
	}
	def := r.View.Def.SQL()
	// The candidate must expose Year (the dropped selection predicate's
	// column) and group by it, and carry SUM(Charge) plus a COUNT.
	for _, frag := range []string{"Year", "SUM(Charge)", "COUNT("} {
		if !strings.Contains(def, frag) {
			t.Errorf("candidate missing %q: %s", frag, def)
		}
	}
	if strings.Contains(def, "1995") {
		t.Errorf("selection constant must not be baked into the view: %s", def)
	}
}

func TestSharedCandidateForTwoQueries(t *testing.T) {
	a := &Advisor{Rows: rows}
	w := Workload{
		{Query: q(t, "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id")},
		{Query: q(t, "SELECT Month, SUM(Charge) FROM Calls GROUP BY Month")},
	}
	recs := recommend(t, a, w, 0)
	if len(recs) == 0 {
		t.Fatal("expected recommendations")
	}
	// The merged (Plan_Id, Month) candidate serves both queries, so the
	// greedy pass should pick one view helping both rather than two.
	if len(recs[0].Helps) != 2 {
		for _, r := range recs {
			t.Logf("rec %s helps %v benefit %.0f rows %.0f", r.View.Def.SQL(), r.Helps, r.Benefit, r.EstRows)
		}
		t.Fatalf("first pick should serve both queries, helps=%v", recs[0].Helps)
	}
}

func TestBudgetLimitsSelection(t *testing.T) {
	a := &Advisor{Rows: rows}
	w := Workload{
		{Query: q(t, "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id")},
	}
	all := recommend(t, a, w, 0)
	if len(all) == 0 {
		t.Fatal("unbudgeted run should recommend")
	}
	none := recommend(t, a, w, 0.5) // below any view's estimated size
	if len(none) != 0 {
		t.Fatalf("budget of half a row must refuse everything, got %d", len(none))
	}
}

func TestWeightsShiftPriorities(t *testing.T) {
	a := &Advisor{Rows: rows}
	heavy := q(t, "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id")
	light := q(t, "SELECT Month, MIN(Charge) FROM Calls GROUP BY Month")
	w := Workload{
		{Query: heavy, Weight: 100},
		{Query: light, Weight: 0.01},
	}
	recs := recommend(t, a, w, 0)
	if len(recs) == 0 {
		t.Fatal("expected recommendations")
	}
	// The first pick must help the heavy query.
	helpsHeavy := false
	for _, i := range recs[0].Helps {
		if i == 0 {
			helpsHeavy = true
		}
	}
	if !helpsHeavy {
		t.Fatalf("first pick ignores the heavy query: helps=%v", recs[0].Helps)
	}
}

func TestConjunctiveQueriesYieldNoCandidates(t *testing.T) {
	a := &Advisor{Rows: rows}
	w := Workload{{Query: q(t, "SELECT Call_Id, Charge FROM Calls WHERE Year = 1995")}}
	if recs := recommend(t, a, w, 0); len(recs) != 0 {
		t.Fatalf("no aggregation queries, no candidates: %v", recs)
	}
}

func TestJoinWorkloadCandidate(t *testing.T) {
	a := &Advisor{Rows: rows}
	w := Workload{{Query: q(t, `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
		GROUP BY Calling_Plans.Plan_Id, Plan_Name`)}}
	recs := recommend(t, a, w, 0)
	if len(recs) == 0 {
		t.Fatal("join workload should produce a candidate")
	}
	def := recs[0].View.Def.SQL()
	if !strings.Contains(def, "Calls, Calling_Plans") && !strings.Contains(def, "Calling_Plans, Calls") {
		t.Errorf("candidate should join both tables: %s", def)
	}
	if !strings.Contains(def, "=") {
		t.Errorf("join predicate must be kept: %s", def)
	}
}

// The recommended views must actually be usable: re-run the rewriter.
func TestRecommendationsAreUsable(t *testing.T) {
	a := &Advisor{Rows: rows}
	queries := []string{
		"SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id",
		"SELECT Plan_Id, Month, COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month",
		"SELECT Year, AVG(Charge) FROM Calls GROUP BY Year",
	}
	var w Workload
	for _, sql := range queries {
		w = append(w, WeightedQuery{Query: q(t, sql)})
	}
	recs := recommend(t, a, w, 0)
	if len(recs) == 0 {
		t.Fatal("expected recommendations")
	}
	covered := map[int]bool{}
	for _, r := range recs {
		for _, i := range r.Helps {
			covered[i] = true
		}
	}
	if len(covered) != len(queries) {
		t.Fatalf("recommendations cover %d of %d queries", len(covered), len(queries))
	}
}
