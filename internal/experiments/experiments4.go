package experiments

import (
	"context"
	"io"

	"aggview/internal/baseline"
	"aggview/internal/core"
	"aggview/internal/ir"
)

// baselineCorpus compares the closure-based rewriter's usability
// detection against the syntactic matcher of [GHQ95] as characterized in
// the paper's Section 6 (E13, table T13). The corpus stresses exactly
// the capability the paper claims over that work: equalities inferred
// from WHERE-clause joins, HAVING pre-processing, and key-based set
// reasoning.
func baselineCorpus(ctx context.Context, w io.Writer, _ bool) {
	t := newTable("case", "syntactic baseline", "this rewriter")
	baseHits, ourHits := 0, 0
	cases := BaselineCases(ctx)
	for _, c := range cases {
		b, r := "no", "no"
		if c.Baseline {
			b = "yes"
			baseHits++
		}
		if c.Rewriter {
			r = "yes"
			ourHits++
		}
		t.row(c.Name, b, r)
	}
	t.flush(w)
	tt := newTable("detector", "usable cases found", "of")
	tt.row("syntactic baseline", baseHits, len(cases))
	tt.row("closure-based rewriter (this library)", ourHits, len(cases))
	tt.flush(w)
}

// BaselineCase is one corpus entry of E13.
type BaselineCase struct {
	Name               string
	Baseline, Rewriter bool
}

// BaselineCases runs the E13 corpus through both detectors under ctx.
// Every case is genuinely usable (the rewriter's verdicts are
// themselves verified by the randomized equivalence suites elsewhere).
func BaselineCases(ctx context.Context) []BaselineCase {
	src := ir.MapSource{
		"R1":            {"A", "B", "C", "D"},
		"R2":            {"E", "F"},
		"Calls":         {"Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge"},
		"Calling_Plans": {"Plan_Id", "Plan_Name"},
	}
	type entry struct{ name, view, query string }
	corpus := []entry{
		{"Example 1.1 (group column equal via join)",
			`SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) FROM Calls, Calling_Plans
			 WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`,
			`SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans
			 WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
			 GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) < 1000000`},
		{"identical grouping, SUM of SUM (syntactic)",
			"SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B",
			"SELECT A, SUM(C) FROM R1 GROUP BY A"},
		{"conjunctive slice, literal residual (syntactic)",
			"SELECT A, B, C, D FROM R1 WHERE B = 2",
			"SELECT A, COUNT(C) FROM R1 WHERE B = 2 AND C = 1 GROUP BY A"},
		{"residual implied but not literal (B = 6 & D = 6 vs B = D)",
			"SELECT C, D FROM R1, R2 WHERE A = C AND B = D",
			"SELECT A, SUM(B) FROM R1, R2 WHERE A = C AND B = 6 AND D = 6 GROUP BY A"},
		{"aggregate argument equal via WHERE (SUM(B) from SUM(D))",
			"SELECT A, SUM(D), COUNT(D) FROM R1 WHERE B = D GROUP BY A",
			"SELECT A, SUM(B) FROM R1 WHERE B = D GROUP BY A"},
		{"HAVING group predicate moved to WHERE",
			"SELECT A, B, COUNT(C) FROM R1 WHERE A > 1 GROUP BY A, B",
			"SELECT A, COUNT(C) FROM R1 GROUP BY A HAVING A > 1"},
		{"extremal HAVING pushed (MAX(B) > 10 vs slice B > 10)",
			"SELECT A, B, C, D FROM R1 WHERE B > 10",
			"SELECT A, MAX(B) FROM R1 GROUP BY A HAVING MAX(B) > 10"},
		{"view HAVING weaker than query's",
			"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1",
			"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 3"},
	}
	var out []BaselineCase
	for _, e := range corpus {
		reg := ir.NewRegistry()
		v, err := ir.NewViewDef("V", ir.MustBuild(e.view, src))
		if err != nil {
			panic(err)
		}
		if err := reg.Add(v); err != nil {
			panic(err)
		}
		rw := &core.Rewriter{Views: reg}
		q := ir.MustBuild(e.query, src)
		rws, err := rw.RewriteOnceContext(ctx, q, v)
		if err != nil {
			panic(err)
		}
		out = append(out, BaselineCase{
			Name:     e.name,
			Baseline: baseline.Usable(q, v),
			Rewriter: len(rws) > 0,
		})
	}
	return out
}
