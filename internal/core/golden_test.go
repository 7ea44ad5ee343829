package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggview/internal/ir"
	"aggview/internal/keys"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/search_golden.txt from the current search")

// goldenView is one registered view; goldenCase registers them in the
// order listed (the order the search walks them in).
type goldenView struct{ name, sql string }

type goldenCase struct {
	name    string
	views   []goldenView
	opts    Options
	keyed   bool // attach the keyed catalog (Section 5 relaxations)
	queries []string
}

// telcoCatalog is the six-view catalog the benchmark serves, in its
// registration order.
var telcoCatalog = []goldenView{
	{"V1", telcoV1},
	{"VPlanMonth", `SELECT Plan_Id, Month, Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month, Year`},
	{"VCust", `SELECT Cust_Id, SUM(Charge), COUNT(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`},
	{"VSel96", `SELECT Plan_Id, Month, SUM(Charge) FROM Calls WHERE Year = 1996 GROUP BY Plan_Id, Month`},
	{"VYear", `SELECT Year, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Year`},
	{"VRange", `SELECT Plan_Id, Year, MIN(Charge), MAX(Charge) FROM Calls GROUP BY Plan_Id, Year`},
}

const telcoQMonth = `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
	FROM Calls, Calling_Plans
	WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1996 AND Month = 3
	GROUP BY Calling_Plans.Plan_Id, Plan_Name
	HAVING SUM(Charge) < 5200`

func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "example-1.1", views: []goldenView{{"V1", telcoV1}}, queries: []string{telcoQ}},
		{name: "example-3.1", views: []goldenView{{"V31", "SELECT C, D FROM R1, R2 WHERE A = C AND B = D"}},
			queries: []string{"SELECT A, SUM(B) FROM R1, R2 WHERE A = C AND B = 6 AND D = 6 GROUP BY A"}},
		{name: "example-3.1-too-strict", views: []goldenView{{"W", "SELECT A, B, C, D FROM R1 WHERE B = 7"}},
			queries: []string{"SELECT A, SUM(B) FROM R1 WHERE B = 6 GROUP BY A"}},
		{name: "projected-out-column", views: []goldenView{{"W", "SELECT A, B FROM R1"}},
			queries: []string{"SELECT A FROM R1 WHERE D = 3", "SELECT A FROM R1 WHERE B = 3"}},
		{name: "example-4.1", views: []goldenView{{"V41", "SELECT A, C, COUNT(D) FROM R1 WHERE B = D GROUP BY A, C"}},
			queries: []string{"SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E"}},
		{name: "example-4.2", views: []goldenView{
			{"V42a", "SELECT A, B, SUM(C) FROM R1 GROUP BY A, B"},
			{"V42b", "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B"},
		}, queries: []string{"SELECT A, SUM(E) FROM R1, R2 GROUP BY A"}},
		{name: "example-4.2-paper-faithful", opts: Options{PaperFaithful: true}, views: []goldenView{
			{"V42b", "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B"},
			{"Vg", "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B"},
		}, queries: []string{
			"SELECT A, SUM(E) FROM R1, R2 GROUP BY A",
			"SELECT A, B, SUM(E) FROM R1, R2 GROUP BY A, B",
		}},
		{name: "example-4.4", views: []goldenView{{"V44", "SELECT A, E, F, SUM(B) FROM R1, R2 GROUP BY A, E, F"}},
			queries: []string{
				"SELECT A, E, SUM(B) FROM R1, R2 WHERE B = F GROUP BY A, E",
				"SELECT A, E, SUM(B) FROM R1, R2 GROUP BY A, E",
			}},
		{name: "example-4.5", views: []goldenView{{"V45", "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B"}},
			queries: []string{"SELECT A, B FROM R1"}},
		{name: "aggregates", views: []goldenView{
			{"Vm", "SELECT A, MIN(B), MAX(B), COUNT(B) FROM R1 GROUP BY A, C"},
			{"Vb", "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B"},
			{"Vsc", "SELECT A, SUM(B), COUNT(B) FROM R1 GROUP BY A, C"},
			{"Vac", "SELECT A, AVG(B), COUNT(B) FROM R1 GROUP BY A, C"},
		}, queries: []string{
			"SELECT A, MIN(B), MAX(B) FROM R1 GROUP BY A",
			"SELECT A, MIN(B), COUNT(C) FROM R1 GROUP BY A",
			"SELECT A, AVG(B) FROM R1 GROUP BY A",
			"SELECT A, SUM(B) FROM R1 GROUP BY A",
		}},
		{name: "having", views: []goldenView{
			{"Vh", "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B"},
			{"Vvh", "SELECT A, B, SUM(C), COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1"},
			{"Vs", "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 3"},
		}, queries: []string{
			"SELECT A, COUNT(C) FROM R1 GROUP BY A HAVING A > 1",
			"SELECT A, B, SUM(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1 AND SUM(C) > 2",
			"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 3",
			"SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B HAVING COUNT(C) > 1",
			"SELECT A, SUM(C) FROM R1 GROUP BY A",
			"SELECT A, MAX(B) FROM R1 GROUP BY A HAVING MAX(B) > 2",
		}},
		{name: "theorem-3.2", views: []goldenView{
			{"W1", "SELECT A, B, C, D FROM R1 WHERE B = 2"},
			{"W2", "SELECT E, F FROM R2 WHERE F = 3"},
		}, queries: []string{
			"SELECT A, SUM(E) FROM R1, R2 WHERE B = 2 AND F = 3 GROUP BY A",
			"SELECT r.A, SUM(s.A) FROM R1 r, R1 s WHERE r.B = 2 AND s.B = 2 GROUP BY r.A",
			"SELECT A, E FROM R1, R2 WHERE B = 2 AND F = 3 AND A <= E AND E <= A AND C <> 4",
		}},
		{name: "max-rewritings-cut", opts: Options{MaxRewritings: 2}, views: []goldenView{
			{"W1", "SELECT A, B, C, D FROM R1 WHERE B = 2"},
			{"W2", "SELECT E, F FROM R2 WHERE F = 3"},
		}, queries: []string{"SELECT A, SUM(E) FROM R1, R2 WHERE B = 2 AND F = 3 GROUP BY A"}},
		{name: "example-5.1", keyed: true, views: []goldenView{
			{"V51", "SELECT r.A, s.A FROM R1 r, R1 s WHERE r.B = s.C"},
			{"Vd", "SELECT DISTINCT A, B, C, D FROM R1"},
		}, queries: []string{
			"SELECT A FROM R1 WHERE B = C",
			"SELECT DISTINCT A, B FROM R1",
			"SELECT A, B FROM R1",
		}},
		{name: "no-normalize", opts: Options{NoNormalize: true}, views: []goldenView{
			{"Vh", "SELECT A, B, COUNT(C) FROM R1 GROUP BY A, B"},
		}, queries: []string{"SELECT A, COUNT(C) FROM R1 GROUP BY A HAVING A > 1"}},
		{name: "telco-six-views", views: telcoCatalog, queries: []string{
			telcoQ,
			telcoQMonth,
			`SELECT Plan_Id, Month, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id, Month`,
			`SELECT Plan_Id, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id`,
			`SELECT Cust_Id, SUM(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`,
			`SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Year = 1994 GROUP BY Plan_Id`,
			`SELECT Plan_Id, AVG(Charge) FROM Calls WHERE Year = 1996 GROUP BY Plan_Id`,
			`SELECT Day, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Day`,
			`SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Charge >= 500 AND Charge < 1500 GROUP BY Plan_Id`,
			`SELECT Plan_Id FROM Calls`,
		}},
	}
}

func (gc goldenCase) rewriter(t *testing.T) *Rewriter {
	t.Helper()
	reg := ir.NewRegistry()
	src := ir.MultiSource{tables(), reg}
	for _, gv := range gc.views {
		v, err := ir.NewViewDef(gv.name, ir.MustBuild(gv.sql, src))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	rw := &Rewriter{Views: reg, Opts: gc.opts}
	if gc.keyed {
		rw.Meta = keys.CatalogMeta{Catalog: keyedCatalog(t)}
	}
	return rw
}

// renderSearch runs every case's searches and renders the ordered
// rewriting lists and the candidate verdicts a recording span kept.
func renderSearch(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, gc := range goldenCases() {
		for qi, sql := range gc.queries {
			rw := gc.rewriter(t)
			q := buildQ(t, rw, sql)
			fmt.Fprintf(&b, "== %s #%d\nquery: %s\n", gc.name, qi+1, q.SQL())
			rws, rec := tracedRewritings(t, rw, q)
			for i, r := range rws {
				fmt.Fprintf(&b, "rewriting %d: %s\n  used=%v setonly=%v\n", i+1, r.SQL(), r.Used, r.SetOnly)
				for _, n := range r.Notes {
					fmt.Fprintf(&b, "  note: %s\n", n)
				}
			}
			fmt.Fprintf(&b, "waves=%d jobs=%d\n", rec.Waves, rec.Jobs)
			for _, c := range rec.Candidates {
				fmt.Fprintf(&b, "candidate wave=%d view=%s set=%v verdict=%s cond=%q\n  from: %s\n  mapping: %s\n  reason: %s\n  rewriting: %s\n",
					c.Wave, c.View, c.SetSemantics, c.Verdict, c.Condition, c.Query, c.Mapping, c.Reason, c.Rewriting)
				for _, n := range c.Notes {
					fmt.Fprintf(&b, "  note: %s\n", n)
				}
			}
		}
	}
	return b.String()
}

// TestSearchGolden pins the search's observable output — the ordered
// rewriting list (SQL, Used, SetOnly, Notes) and every traced candidate
// verdict — for the paper's examples and the six-view telco catalog,
// byte for byte. The golden file was captured from
// the search as it stood before per-query and per-view facts were
// shared (regenerate with -update-golden only for an intended change).
func TestSearchGolden(t *testing.T) {
	path := filepath.Join("testdata", "search_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(renderSearch(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := renderSearch(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("search output differs from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("search output has %d lines, golden has %d", len(gl), len(wl))
}
