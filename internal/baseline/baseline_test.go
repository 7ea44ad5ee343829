package baseline

import (
	"context"
	"testing"

	"aggview/internal/core"
	"aggview/internal/ir"
)

func src() ir.MapSource {
	return ir.MapSource{
		"R1":            {"A", "B", "C", "D"},
		"R2":            {"E", "F"},
		"Calls":         {"Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge"},
		"Calling_Plans": {"Plan_Id", "Plan_Name"},
	}
}

func view(t *testing.T, sql string) *ir.ViewDef {
	t.Helper()
	v, err := ir.NewViewDef("V", ir.MustBuild(sql, src()))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func q(t *testing.T, sql string) *ir.Query {
	t.Helper()
	return ir.MustBuild(sql, src())
}

func TestSyntacticMatchAccepts(t *testing.T) {
	cases := []struct{ view, query string }{
		// Identical grouping columns, SUM of SUM.
		{"SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
			"SELECT A, SUM(C) FROM R1 GROUP BY A"},
		// Conjunctive slice with literal residual.
		{"SELECT A, B, C, D FROM R1 WHERE B = 2",
			"SELECT A, COUNT(C) FROM R1 WHERE B = 2 AND C = 1 GROUP BY A"},
		// MIN over exposed grouping column.
		{"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
			"SELECT A, MIN(B) FROM R1 GROUP BY A"},
	}
	for i, tc := range cases {
		if !Usable(q(t, tc.query), view(t, tc.view)) {
			t.Errorf("case %d: baseline should accept\n view: %s\n query: %s", i, tc.view, tc.query)
		}
	}
}

func TestSyntacticMatchRejects(t *testing.T) {
	cases := []struct{ view, query string }{
		// No COUNT column: multiplicities unrecoverable.
		{"SELECT A, B, SUM(C) FROM R1 GROUP BY A, B",
			"SELECT A, SUM(E) FROM R1, R2 GROUP BY A"},
		// View condition absent from the query.
		{"SELECT A, B, C, D FROM R1 WHERE B = 7",
			"SELECT A, SUM(C) FROM R1 GROUP BY A"},
		// Aggregation view for conjunctive query.
		{"SELECT A, COUNT(B) FROM R1 GROUP BY A", "SELECT A, B FROM R1"},
	}
	for i, tc := range cases {
		if Usable(q(t, tc.query), view(t, tc.view)) {
			t.Errorf("case %d: baseline should reject\n view: %s\n query: %s", i, tc.view, tc.query)
		}
	}
}

// The paper's central criticism (Section 6): the syntactic matcher
// misses Example 1.1 because the query groups by Calling_Plans.Plan_Id
// while the view exposes Calls.Plan_Id — equal only via the join
// predicate. The closure-based rewriter catches it.
func TestBaselineMissesExample11(t *testing.T) {
	v := view(t, `SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
		GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`)
	query := q(t, `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
		GROUP BY Calling_Plans.Plan_Id, Plan_Name`)
	if Usable(query, v) {
		t.Fatal("the syntactic baseline should miss Example 1.1 (that is the paper's point)")
	}
	reg := ir.NewRegistry()
	if err := reg.Add(v); err != nil {
		t.Fatal(err)
	}
	rw := &core.Rewriter{Views: reg}
	if rws, err := rw.RewriteOnceContext(context.Background(), query, v); err != nil || len(rws) == 0 {
		t.Fatal("the closure-based rewriter must catch Example 1.1", err)
	}
}

// Soundness relative to the full rewriter: whatever the baseline
// accepts, the real rewriter must also accept (the baseline is a
// strict under-approximation on this corpus).
func TestBaselineSubsetOfRewriter(t *testing.T) {
	views := []string{
		"SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
		"SELECT A, B, C, D FROM R1 WHERE B = 2",
		"SELECT A, C, COUNT(D) FROM R1 WHERE B = D GROUP BY A, C",
		"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B",
		"SELECT C, D FROM R1, R2 WHERE A = C AND B = D",
		"SELECT A, MIN(B), MAX(B), COUNT(B) FROM R1 GROUP BY A, D",
	}
	queries := []string{
		"SELECT A, SUM(C) FROM R1 GROUP BY A",
		"SELECT A, COUNT(C) FROM R1 WHERE B = 2 GROUP BY A",
		"SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E",
		"SELECT A, MIN(B) FROM R1 GROUP BY A",
		"SELECT A, SUM(B) FROM R1, R2 WHERE A = C AND B = 6 AND D = 6 GROUP BY A",
		"SELECT A, MAX(B), COUNT(D) FROM R1 GROUP BY A",
		"SELECT A, B FROM R1",
	}
	baselineHits, rewriterHits := 0, 0
	for _, vs := range views {
		v := view(t, vs)
		reg := ir.NewRegistry()
		if err := reg.Add(v); err != nil {
			t.Fatal(err)
		}
		rw := &core.Rewriter{Views: reg}
		for _, qs := range queries {
			query := q(t, qs)
			b := Usable(query, v)
			rws, err := rw.RewriteOnceContext(context.Background(), query, v)
			if err != nil {
				t.Fatal(err)
			}
			r := len(rws) > 0
			if b {
				baselineHits++
			}
			if r {
				rewriterHits++
			}
			if b && !r {
				t.Errorf("baseline accepts what the rewriter rejects:\n view: %s\n query: %s", vs, qs)
			}
		}
	}
	if baselineHits >= rewriterHits {
		t.Errorf("the rewriter should dominate the baseline: baseline=%d rewriter=%d", baselineHits, rewriterHits)
	}
	t.Logf("corpus coverage: baseline %d, closure-based rewriter %d", baselineHits, rewriterHits)
}
