package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/budget"
	"aggview/internal/sqlparser"
)

func TestParseCell(t *testing.T) {
	if parseCell("42").AsInt() != 42 {
		t.Error("int cell")
	}
	if parseCell("2.5").AsFloat() != 2.5 {
		t.Error("float cell")
	}
	if parseCell("hello").AsString() != "hello" {
		t.Error("string cell")
	}
	if parseCell("").AsString() != "" {
		t.Error("empty cell is an empty string")
	}
}

func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "calls.csv")
	if err := os.WriteFile(file, []byte("1, 10, 1995, 250\n2, 11, 1995, 300\n3, 10, 1994, 120\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := aggview.New()
	s.MustLoad("CREATE TABLE Calls(Call_Id, Plan_Id, Year, Charge) KEY(Call_Id)")
	if err := loadCSV(context.Background(), s, "Calls", file); err != nil {
		t.Fatal(err)
	}
	r, err := s.QueryContext(context.Background(), "SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id")
	if err != nil {
		t.Fatal(err)
	}
	r = r.Sorted()
	if r.Len() != 2 || r.Tuples[0][1].AsInt() != 250 || r.Tuples[1][1].AsInt() != 300 {
		t.Fatalf("CSV load wrong:\n%s", r)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	ctx := context.Background()
	s := aggview.New()
	s.MustLoad("CREATE TABLE T(A)")
	if err := loadCSV(ctx, s, "T", "/nonexistent/file.csv"); err == nil {
		t.Error("missing file should fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loadCSV(ctx, s, "T", bad); err == nil {
		t.Error("arity mismatch should fail")
	}
}

// TestScriptEndToEnd drives the loader main uses: a script's writes run
// in script order with its declarations, a -data file's rows follow, the
// declared views are tracked after both, and the queries come back in
// order. A script that writes nothing leaves its views untracked.
func TestScriptEndToEnd(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	script := filepath.Join(dir, "orders.sql")
	if err := os.WriteFile(script, []byte(`
		CREATE TABLE Orders(Order_Id, Product, Month, Amount) KEY(Order_Id);
		CREATE VIEW MP AS SELECT Product, Month, SUM(Amount), COUNT(Amount) FROM Orders GROUP BY Product, Month;
		INSERT INTO Orders VALUES (1, 'widget', 1, 100), (2, 'widget', 2, 150), (9, 'gizmo', 1, 5);
		DELETE FROM Orders WHERE Product = 'gizmo';
		UPDATE Orders SET Amount = Amount + 1 WHERE Order_Id = 2;
		SELECT Product, SUM(Amount) FROM Orders GROUP BY Product;
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	csvFile := filepath.Join(dir, "orders.csv")
	if err := os.WriteFile(csvFile, []byte("3,gadget,1,90\n4,widget,1,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, queries, err := loadScriptSystem(ctx, script, dataFlags{"Orders=" + csvFile}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 1 {
		t.Fatalf("queries: %q", queries)
	}
	if modes := s.ViewModes(); len(modes) != 1 || modes[0].Name != "MP" {
		t.Fatalf("tracked views: %+v, want MP", modes)
	}
	res, _, err := s.QueryBestContext(ctx, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sorted().String(); !strings.Contains(got, "'gadget' | 90") || !strings.Contains(got, "'widget' | 258") || res.Len() != 2 {
		t.Fatalf("result:\n%s", got)
	}

	declOnly := filepath.Join(dir, "decl.sql")
	if err := os.WriteFile(declOnly, []byte("CREATE TABLE T(A, B); CREATE VIEW V AS SELECT A, SUM(B) FROM T GROUP BY A;"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err = loadScriptSystem(ctx, declOnly, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if modes := s.ViewModes(); len(modes) != 0 {
		t.Fatalf("a script that writes nothing tracked %+v", modes)
	}
}

// TestDemoScript exercises the shipped testdata script through the same
// code path main uses (declarations, views, queries, explanations).
func TestDemoScript(t *testing.T) {
	script, err := os.ReadFile("testdata/demo.sql")
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := sqlparser.ParseScript(string(script))
	if err != nil {
		t.Fatal(err)
	}
	var nTables, nViews, nQueries int
	for _, st := range stmts {
		switch st.(type) {
		case *sqlparser.CreateTable:
			nTables++
		case *sqlparser.CreateView:
			nViews++
		case *sqlparser.QueryStatement:
			nQueries++
		}
	}
	if nTables != 2 || nViews != 1 || nQueries != 2 {
		t.Fatalf("demo script shape: %d tables, %d views, %d queries", nTables, nViews, nQueries)
	}
	s := aggview.New()
	s.MustLoad(`
		CREATE TABLE Calls(Call_Id, Plan_Id, Month, Year, Charge) KEY(Call_Id);
		CREATE TABLE Calling_Plans(Plan_Id, Plan_Name) KEY(Plan_Id)`)
	s.MustDefineView("Monthly", `SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge), COUNT(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
		GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`)
	for _, st := range stmts {
		q, ok := st.(*sqlparser.QueryStatement)
		if !ok {
			continue
		}
		if _, err := s.Explain(context.Background(), q.Query.SQL()); err != nil {
			t.Fatalf("explain %s: %v", q.Query.SQL(), err)
		}
	}
}

// TestLoadScriptKeepsViewColumnList loads a script through the path main
// takes: a view declared with a column list — the form the server's
// /script and slow-query repros emit — keeps its names, a table its key and
// FD, the queries come back in order, and the CSV rows land under the
// declared views.
func TestLoadScriptKeepsViewColumnList(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	script := filepath.Join(dir, "s.sql")
	csvFile := filepath.Join(dir, "orders.csv")
	if err := os.WriteFile(script, []byte(`
		CREATE TABLE Orders(Order_Id, Product, Amount) KEY(Order_Id) FD(Order_Id -> Product);
		CREATE VIEW PerProduct(P, Total) AS SELECT Product, SUM(Amount) FROM Orders GROUP BY Product;
		SELECT P, Total FROM PerProduct WHERE Total > 100;
		SELECT Product, SUM(Amount) FROM Orders GROUP BY Product;
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvFile, []byte("1,widget,100\n2,widget,150\n3,gadget,90\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, queries, err := loadScriptSystem(ctx, script, dataFlags{"Orders=" + csvFile}, false)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.Views.Get("PerProduct")
	if !ok || len(v.OutCols) != 2 || v.OutCols[0] != "P" || v.OutCols[1] != "Total" {
		t.Fatalf("view columns %v, want [P Total]", v.OutCols)
	}
	if tab, _ := s.Catalog.Table("Orders"); len(tab.Keys) != 1 || len(tab.FDs) != 1 {
		t.Fatalf("Orders lost its key or FD: %+v", tab)
	}
	if len(queries) != 2 {
		t.Fatalf("%d queries, want 2", len(queries))
	}
	res, err := s.QueryContext(ctx, queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Tuples[0][0].AsString() != "widget" || res.Tuples[0][1].AsInt() != 250 {
		t.Fatalf("query over the view's declared columns: %s", res)
	}
	if _, _, err := loadScriptSystem(ctx, script, dataFlags{"Orders"}, false); err == nil {
		t.Error("a -data spec without a file should fail")
	}
}

// TestDemoGolden pins `aggview -demo`'s output: the statistics, cost
// estimates, chosen rewriting and answer of Example 1.1 over the
// generated warehouse.
func TestDemoGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/demo.out")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := runDemo(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("demo output differs from testdata/demo.out:\n%s", got.String())
	}
}

// budgetScript loads a two-view system whose queries' searches see
// more than one candidate, through the loader main uses.
func budgetScript(t *testing.T) (*aggview.System, []string) {
	t.Helper()
	script := filepath.Join(t.TempDir(), "b.sql")
	if err := os.WriteFile(script, []byte(`
		CREATE TABLE T(A, B);
		CREATE VIEW V AS SELECT A, SUM(B) FROM T GROUP BY A;
		CREATE VIEW W AS SELECT A, B, COUNT(B) FROM T GROUP BY A, B;
		INSERT INTO T VALUES (1, 2), (3, 4), (1, 5), (2, 2), (3, 3), (2, 8);
		SELECT A, SUM(B) FROM T GROUP BY A;
		SELECT B, COUNT(A) FROM T GROUP BY B;
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, queries, err := loadScriptSystem(context.Background(), script, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return s, queries
}

// answerLines keeps the result rows of runQueries' output.
func answerLines(out string) []string {
	var rows []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " | ") {
			rows = append(rows, l)
		}
	}
	return rows
}

// TestMaxCandidatesFallsBack pins -max-candidates 1: the report says the
// search was cut, and -exec answers directly with the unbounded bag.
func TestMaxCandidatesFallsBack(t *testing.T) {
	ctx := context.Background()
	s, queries := budgetScript(t)
	var free, cut strings.Builder
	if err := runQueries(ctx, &free, s, queries, 0, aggview.Limits{}, false, true); err != nil {
		t.Fatal(err)
	}
	if err := runQueries(ctx, &cut, s, queries, 0, aggview.Limits{MaxCandidates: 1}, false, true); err != nil {
		t.Fatalf("a cut search must fall back, not fail: %v", err)
	}
	out := cut.String()
	if strings.Count(out, "rewrite search cut: ") != len(queries) || strings.Count(out, "executed directly") != len(queries) {
		t.Fatalf("want every search cut and every query executed directly:\n%s", out)
	}
	if got, want := answerLines(out), answerLines(free.String()); len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("answers under the cut search:\n%s\nwant the unbounded ones:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestMaxRowsIsTyped pins -max-rows 1: the run ends in a typed rows
// *budget.Exceeded.
func TestMaxRowsIsTyped(t *testing.T) {
	s, queries := budgetScript(t)
	err := runQueries(context.Background(), io.Discard, s, queries, 0, aggview.Limits{MaxRows: 1}, false, true)
	var e *budget.Exceeded
	if !errors.As(err, &e) || e.Resource != "rows" {
		t.Fatalf("want a rows *budget.Exceeded, got %v", err)
	}
}

// TestBudgetsArePerCall pins that the budget flags bound each call, not
// the run: two queries that each fit the row budget both answer, though
// together they spend more than it.
func TestBudgetsArePerCall(t *testing.T) {
	ctx := context.Background()
	s, queries := budgetScript(t)
	var spent []int64
	for _, q := range queries {
		m := budget.NewMeter(budget.Limits{MaxRows: 1 << 40})
		if _, _, err := s.QueryBestContext(budget.WithMeter(ctx, m), q); err != nil {
			t.Fatal(err)
		}
		spent = append(spent, m.Rows())
	}
	limit := max(spent[0], spent[1])
	if spent[0]+spent[1] <= limit {
		t.Fatalf("rows spent %v: the fixture's queries must together exceed either alone", spent)
	}
	var out strings.Builder
	if err := runQueries(ctx, &out, s, queries, 0, aggview.Limits{MaxRows: limit}, false, true); err != nil {
		t.Fatalf("queries spending %v rows under a %d-row budget each: %v", spent, limit, err)
	}
	if n := strings.Count(out.String(), "executed "); n != len(queries) {
		t.Fatalf("%d of %d queries answered:\n%s", n, len(queries), out.String())
	}
}
