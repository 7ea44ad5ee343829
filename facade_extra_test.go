package aggview

import (
	"context"
	"testing"

	"aggview/internal/engine"
)

// TestTrackViewMaintainsUnderInserts exercises the facade maintenance
// path: tracked summary views stay consistent as rows arrive.
func TestTrackViewMaintainsUnderInserts(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad(`
		CREATE TABLE Txns(Txn_Id, Acct_Id, Amount) KEY(Txn_Id);
		CREATE VIEW ByAcct AS SELECT Acct_Id, SUM(Amount), COUNT(Amount) FROM Txns GROUP BY Acct_Id;
	`)
	if err := s.InsertContext(ctx, "Txns", []Value{Int(1), Int(1), Int(10)}); err != nil {
		t.Fatal(err)
	}
	inc, err := s.TrackViewContext(ctx, "ByAcct")
	if err != nil {
		t.Fatal(err)
	}
	if !inc {
		t.Fatal("SUM/COUNT view should maintain incrementally")
	}
	for i := int64(2); i < 30; i++ {
		if err := s.InsertContext(ctx, "Txns", []Value{Int(i), Int(i % 3), Int(i * 2)}); err != nil {
			t.Fatal(err)
		}
	}
	// The materialization must match recomputation, and the rewriter
	// must use it.
	fresh := mustQuery(t, s, "SELECT Acct_Id, SUM(Amount), COUNT(Amount) FROM Txns GROUP BY Acct_Id")
	mat, ok := s.DB.Get("ByAcct")
	if !ok {
		t.Fatal("materialization missing")
	}
	if !engine.ResultsEqualBag(fresh, mat) {
		t.Fatalf("maintained view stale:\n%s\nvs\n%s", mat.Sorted(), fresh.Sorted())
	}
	res, used, err := s.QueryBestContext(ctx, "SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id")
	if err != nil {
		t.Fatal(err)
	}
	if used == nil || used.Used[0] != "ByAcct" {
		t.Fatalf("expected the maintained view to answer, used=%v", used)
	}
	if res.Len() != 3 {
		t.Fatalf("result: %s", res)
	}
}

// TestLogicalViewFlattening exercises physical data independence: the
// application queries a logical (unmaterialized) view; the planner
// flattens it to base tables and answers from a different materialized
// summary.
func TestLogicalViewFlattening(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad(`
		CREATE TABLE Sales(Sale_Id, Region, Product, Amount) KEY(Sale_Id);
		CREATE VIEW West AS SELECT Sale_Id, Product, Amount FROM Sales WHERE Region = 1;
		CREATE VIEW ByRegionProduct AS
			SELECT Region, Product, SUM(Amount), COUNT(Amount) FROM Sales GROUP BY Region, Product;
	`)
	var rows [][]Value
	for i := int64(0); i < 200; i++ {
		rows = append(rows, []Value{Int(i), Int(i % 3), Int(i % 5), Int(i)})
	}
	if err := s.InsertContext(ctx, "Sales", rows...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrackViewContext(ctx, "ByRegionProduct"); err != nil {
		t.Fatal(err)
	}
	// Query over the LOGICAL view West (not materialized): must flatten
	// to Sales WHERE Region = 1, then route to ByRegionProduct.
	q := "SELECT Product, SUM(Amount) FROM West GROUP BY Product"
	res, used, err := s.QueryBestContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if used == nil || used.Used[0] != "ByRegionProduct" {
		t.Fatalf("expected flatten + rewrite to the summary view, used=%v", used)
	}
	direct := mustQuery(t, s, q)
	if !engine.ResultsEqualBag(direct, res) {
		t.Fatalf("flattened plan differs:\n%s\nvs\n%s", res.Sorted(), direct.Sorted())
	}
}

// TestMaterializedViewNotFlattened: once a view is materialized it is a
// data source; the planner must scan it rather than expand it.
func TestMaterializedViewNotFlattened(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad(`
		CREATE TABLE T(Id, K, V) KEY(Id);
		CREATE VIEW Slice AS SELECT Id, K, V FROM T WHERE K = 1;
	`)
	for i := int64(0); i < 50; i++ {
		if err := s.InsertContext(ctx, "T", []Value{Int(i), Int(i % 4), Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.TrackViewContext(ctx, "Slice"); err != nil {
		t.Fatal(err)
	}
	p, err := s.PrepareContext(ctx, "SELECT Id, SUM(V) FROM Slice GROUP BY Id")
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rewriting()
	// The plan may or may not rewrite further, but the query text used
	// for planning must still reference the materialized Slice (hence a
	// direct scan remains available); executing must succeed and agree.
	res, used, err := s.QueryBestContext(ctx, "SELECT Id, SUM(V) FROM Slice GROUP BY Id")
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	_ = used
	want := mustQuery(t, s, "SELECT Id, SUM(V) FROM Slice GROUP BY Id")
	if !engine.ResultsEqualBag(res, want) {
		t.Fatal("materialized-view query broken")
	}
}

func TestAdviseAndAdoptViaFacade(t *testing.T) {
	ctx := context.Background()
	s := New()
	s.MustLoad("CREATE TABLE Calls(Call_Id, Plan_Id, Year, Charge) KEY(Call_Id)")
	var rows [][]Value
	for i := int64(0); i < 500; i++ {
		rows = append(rows, []Value{Int(i), Int(i % 7), Int(1994 + i%3), Int(i % 100)})
	}
	if err := s.InsertContext(ctx, "Calls", rows...); err != nil {
		t.Fatal(err)
	}
	workload := []string{
		"SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id",
		"SELECT Plan_Id, Year, COUNT(Charge) FROM Calls GROUP BY Plan_Id, Year",
	}
	recs, err := s.AdviseContext(ctx, workload, []float64{3, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("expected recommendations")
	}
	names, err := s.AdoptRecommendations(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(recs) {
		t.Fatalf("adopted %d of %d", len(names), len(recs))
	}
	res, used, err := s.QueryBestContext(ctx, workload[0])
	if err != nil {
		t.Fatal(err)
	}
	if used == nil {
		t.Fatal("adopted view should answer the workload")
	}
	direct := mustQuery(t, s, workload[0])
	if !engine.ResultsEqualBag(res, direct) {
		t.Fatal("adopted-view answer differs")
	}
	// An adopted view is tracked: a later write reaches it.
	if err := s.InsertContext(ctx, "Calls", []Value{Int(500), Int(0), Int(1995), Int(1000)}); err != nil {
		t.Fatal(err)
	}
	res, used, err = s.QueryBestContext(ctx, workload[0])
	if err != nil || used == nil {
		t.Fatalf("after an insert: used=%v err=%v, want the adopted view", used, err)
	}
	if direct := mustQuery(t, s, workload[0]); !engine.ResultsEqualBag(res, direct) {
		t.Fatalf("after an insert the adopted view answers\n%s\nthe direct query\n%s", res.Sorted(), direct.Sorted())
	}
	// Bad workload query surfaces an error.
	if _, err := s.AdviseContext(ctx, []string{"SELECT nope FROM Calls"}, nil, 0); err == nil {
		t.Fatal("bad workload query should fail")
	}
}

func TestParseExposesIR(t *testing.T) {
	s := New()
	s.MustLoad("CREATE TABLE T(A, B)")
	q, err := s.Parse("SELECT A, COUNT(B) FROM T GROUP BY A")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || len(q.Select) != 2 {
		t.Fatalf("parsed IR wrong: %s", q.SQL())
	}
	if _, err := s.Parse("SELECT Z FROM T"); err == nil {
		t.Fatal("unknown column should fail")
	}
}

// TestLoadExecutesEveryStatement pins Load as parse + ExecContext of each
// statement: a script declares, loads and mutates in one pass, a view's
// column list is kept, and DeleteContext / UpdateContext with a clause that smuggles in
// a second statement or another statement kind are refused.
func TestLoadExecutesEveryStatement(t *testing.T) {
	ctx := context.Background()
	s := New()
	err := s.Load(`
		CREATE TABLE T(A, B) KEY(A);
		INSERT INTO T VALUES (1, 10), (2, 20), (3, 30);
		CREATE VIEW V(K, Total) AS SELECT A, SUM(B) FROM T GROUP BY A;
		UPDATE T SET B = B + A WHERE A >= 2;
		DELETE FROM T WHERE B / A > 10;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Views.Get("V"); !ok || len(v.OutCols) != 2 || v.OutCols[0] != "K" || v.OutCols[1] != "Total" {
		t.Fatalf("view V registered as %+v", v)
	}
	res := mustQuery(t, s, "SELECT K, Total FROM V").Sorted()
	if res.Len() != 1 || res.Tuples[0][0].AsInt() != 1 || res.Tuples[0][1].AsInt() != 10 {
		t.Fatalf("after the script T holds:\n%s", res)
	}
	if err := s.Load("INSERT INTO T VALUES (4, 40); SELECT A FROM T"); err == nil {
		t.Error("a SELECT in a script should be rejected")
	}
	if n, _ := s.DB.NumRows("T"); n != 2 {
		t.Errorf("T holds %d rows, want 2 (statements before a rejected one stay applied)", n)
	}
	if _, err := s.DeleteContext(ctx, "T", "A = 1; DELETE FROM T"); err == nil {
		t.Error("a condition carrying a second statement should be rejected")
	}
	if _, err := s.UpdateContext(ctx, "T", "B = 1; DELETE FROM T", ""); err == nil {
		t.Error("a SET clause carrying a second statement should be rejected")
	}
	if n, _ := s.DB.NumRows("T"); n != 2 {
		t.Errorf("a rejected statement changed T: %d rows", n)
	}
}
