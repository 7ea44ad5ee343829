// Quickstart: define a table and a summary view, insert data, track
// the view (materialize it and keep it current under later writes), and
// watch a grouped query get answered from the materialization instead of
// the base table.
package main

import (
	"context"
	"fmt"
	"log"

	"aggview"
)

func main() {
	ctx := context.Background()
	s := aggview.New()

	// Schema: an order ledger plus a per-(product, month) summary view.
	s.MustLoad(`
		CREATE TABLE Orders(Order_Id, Product, Month, Amount) KEY(Order_Id);
		CREATE VIEW MonthlySales AS
			SELECT Product, Month, SUM(Amount), COUNT(Amount)
			FROM Orders
			GROUP BY Product, Month;
	`)

	// A little data.
	rows := [][]aggview.Value{
		{aggview.Int(1), aggview.Str("anvil"), aggview.Int(1), aggview.Int(100)},
		{aggview.Int(2), aggview.Str("anvil"), aggview.Int(1), aggview.Int(250)},
		{aggview.Int(3), aggview.Str("anvil"), aggview.Int(2), aggview.Int(80)},
		{aggview.Int(4), aggview.Str("rocket"), aggview.Int(1), aggview.Int(900)},
		{aggview.Int(5), aggview.Str("rocket"), aggview.Int(2), aggview.Int(700)},
		{aggview.Int(6), aggview.Str("rocket"), aggview.Int(2), aggview.Int(50)},
	}
	if err := s.InsertContext(ctx, "Orders", rows...); err != nil {
		log.Fatal(err)
	}
	if _, err := s.TrackViewContext(ctx, "MonthlySales"); err != nil {
		log.Fatal(err)
	}

	// Annual sales per product: the rewriter coalesces the monthly
	// subgroups of the view (Example 4.1's pattern) instead of scanning
	// Orders.
	query := "SELECT Product, SUM(Amount), COUNT(Amount) FROM Orders GROUP BY Product"

	explain, err := s.Explain(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(explain)

	res, used, err := s.QueryBestContext(ctx, query)
	if err != nil {
		log.Fatal(err)
	}
	if used != nil {
		fmt.Printf("answered using view(s) %v:\n  %s\n\n", used.Used, used.Query.SQL())
	} else {
		fmt.Println("answered directly from the base table")
	}
	fmt.Println(res.Sorted())
}
