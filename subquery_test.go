package aggview

// End-to-end coverage of derived tables (FROM subqueries): parsing,
// hoisting into anonymous views, flattening of conjunctive blocks, and
// rewriting of flattened queries onto materialized summaries.

import (
	"context"
	"testing"

	"aggview/internal/engine"
)

func subqSystem(t *testing.T) *System {
	t.Helper()
	s := New()
	s.MustLoad(`CREATE TABLE Sales(Sale_Id, Region, Product, Amount) KEY(Sale_Id)`)
	var rows [][]Value
	for i := int64(0); i < 300; i++ {
		rows = append(rows, []Value{Int(i), Int(i % 3), Int(i % 5), Int(i % 97)})
	}
	if err := s.InsertContext(context.Background(), "Sales", rows...); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSubqueryConjunctiveFlattens(t *testing.T) {
	s := subqSystem(t)
	// The derived table is conjunctive: the whole query is equivalent to
	// a single block and must behave identically.
	nested := `SELECT Product, SUM(Amount)
		FROM (SELECT Product, Amount FROM Sales WHERE Region = 1) x
		GROUP BY Product`
	flatSQL := `SELECT Product, SUM(Amount) FROM Sales WHERE Region = 1 GROUP BY Product`
	a := mustQuery(t, s, nested)
	b := mustQuery(t, s, flatSQL)
	if !engine.ResultsEqualBag(a, b) {
		t.Fatalf("subquery semantics wrong:\n%s\nvs\n%s", a.Sorted(), b.Sorted())
	}
}

func TestSubqueryRewritesOntoMaterializedView(t *testing.T) {
	ctx := context.Background()
	s := subqSystem(t)
	s.MustDefineView("ByRP", `SELECT Region, Product, SUM(Amount), COUNT(Amount) FROM Sales GROUP BY Region, Product`)
	if _, err := s.TrackViewContext(ctx, "ByRP"); err != nil {
		t.Fatal(err)
	}
	nested := `SELECT Product, SUM(Amount)
		FROM (SELECT Product, Amount FROM Sales WHERE Region = 1) x
		GROUP BY Product`
	res, used, err := s.QueryBestContext(ctx, nested)
	if err != nil {
		t.Fatal(err)
	}
	if used == nil || used.Used[0] != "ByRP" {
		t.Fatalf("flattened subquery should rewrite onto ByRP, used=%v", used)
	}
	direct := mustQuery(t, s, nested)
	if !engine.ResultsEqualBag(res, direct) {
		t.Fatal("rewritten answer differs")
	}
}

func TestAggregateSubqueryStaysABlock(t *testing.T) {
	s := subqSystem(t)
	// The derived table aggregates: it cannot flatten, but executing it
	// must still work (outer query over the inner block's output).
	nested := `SELECT Region, MAX(total)
		FROM (SELECT Region, Product, SUM(Amount) AS total FROM Sales GROUP BY Region, Product) x
		GROUP BY Region`
	res := mustQuery(t, s, nested)
	if res.Len() != 3 {
		t.Fatalf("want 3 regions, got %d:\n%s", res.Len(), res)
	}
	// Hand-check region 0's maximum per-product total.
	want := map[int64]int64{}
	base := mustQuery(t, s, "SELECT Region, Product, SUM(Amount) FROM Sales GROUP BY Region, Product")
	for _, row := range base.Tuples {
		r := row[0].AsInt()
		if row[2].AsInt() > want[r] {
			want[r] = row[2].AsInt()
		}
	}
	for _, row := range res.Tuples {
		if row[1].AsInt() != want[row[0].AsInt()] {
			t.Fatalf("region %d: got %d want %d", row[0].AsInt(), row[1].AsInt(), want[row[0].AsInt()])
		}
	}
}

func TestNestedSubqueries(t *testing.T) {
	s := subqSystem(t)
	nested := `SELECT Product, COUNT(Amount)
		FROM (SELECT Product, Amount FROM (SELECT Product, Amount, Region FROM Sales WHERE Amount > 10) y WHERE Region = 2) x
		GROUP BY Product`
	flat := `SELECT Product, COUNT(Amount) FROM Sales WHERE Amount > 10 AND Region = 2 GROUP BY Product`
	a := mustQuery(t, s, nested)
	b := mustQuery(t, s, flat)
	if !engine.ResultsEqualBag(a, b) {
		t.Fatalf("nested subqueries wrong:\n%s\nvs\n%s", a.Sorted(), b.Sorted())
	}
}

func TestSubqueryJoinWithBaseTable(t *testing.T) {
	ctx := context.Background()
	s := subqSystem(t)
	s.MustLoad(`CREATE TABLE Products(Product, Label) KEY(Product)`)
	for p := int64(0); p < 5; p++ {
		if err := s.InsertContext(ctx, "Products", []Value{Int(p), Str("p")}); err != nil {
			t.Fatal(err)
		}
	}
	nested := `SELECT Label, SUM(Amount)
		FROM (SELECT Product, Amount FROM Sales WHERE Region = 0) x, Products
		WHERE x.Product = Products.Product
		GROUP BY Label`
	res := mustQuery(t, s, nested)
	if res.Len() != 1 {
		t.Fatalf("grouped by constant label: %s", res)
	}
	// Plan over the flattened form must also work.
	if _, err := s.PrepareContext(ctx, nested); err != nil {
		t.Fatal(err)
	}
}

func TestSubqueryRequiresAlias(t *testing.T) {
	s := subqSystem(t)
	if _, err := s.QueryContext(context.Background(), "SELECT Product FROM (SELECT Product FROM Sales)"); err == nil {
		t.Fatal("derived table without alias must be rejected")
	}
}

func TestSubqueryInExplain(t *testing.T) {
	s := subqSystem(t)
	out, err := s.Explain(context.Background(), `SELECT Product, SUM(Amount)
		FROM (SELECT Product, Amount FROM Sales WHERE Region = 1) x GROUP BY Product`)
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("empty explain")
	}
}

func TestAggregateSubqueryWithRewritableInner(t *testing.T) {
	// The outer block keeps the aggregation subquery; the rewriter
	// cannot cross the block boundary (per the paper's single-block
	// scope), but execution stays correct with a materialized view
	// available.
	ctx := context.Background()
	s := subqSystem(t)
	s.MustDefineView("ByRP", `SELECT Region, Product, SUM(Amount), COUNT(Amount) FROM Sales GROUP BY Region, Product`)
	if _, err := s.TrackViewContext(ctx, "ByRP"); err != nil {
		t.Fatal(err)
	}
	nested := `SELECT Region, MAX(total)
		FROM (SELECT Region, Product, SUM(Amount) AS total FROM Sales GROUP BY Region, Product) x
		GROUP BY Region`
	res, _, err := s.QueryBestContext(ctx, nested)
	if err != nil {
		t.Fatal(err)
	}
	direct := mustQuery(t, s, nested)
	if !engine.ResultsEqualBag(res, direct) {
		t.Fatal("QueryBest over aggregate subquery differs from direct")
	}
}
