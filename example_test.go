package aggview_test

import (
	"context"
	"fmt"

	"aggview"
)

// ExampleSystem_QueryBestContext shows the basic loop: declare a schema and a
// summary view, load data, materialize, and let the planner route a
// query to the view.
func ExampleSystem_QueryBestContext() {
	ctx := context.Background()
	s := aggview.New()
	s.MustLoad(`
		CREATE TABLE Calls(Call_Id, Plan_Id, Year, Charge) KEY(Call_Id);
		CREATE VIEW Annual AS
			SELECT Plan_Id, Year, SUM(Charge), COUNT(Charge)
			FROM Calls GROUP BY Plan_Id, Year;
	`)
	rows := [][]aggview.Value{
		{aggview.Int(1), aggview.Int(7), aggview.Int(1995), aggview.Int(100)},
		{aggview.Int(2), aggview.Int(7), aggview.Int(1995), aggview.Int(250)},
		{aggview.Int(3), aggview.Int(8), aggview.Int(1995), aggview.Int(40)},
		{aggview.Int(4), aggview.Int(7), aggview.Int(1994), aggview.Int(999)},
	}
	if err := s.InsertContext(ctx, "Calls", rows...); err != nil {
		panic(err)
	}
	if _, err := s.TrackViewContext(ctx, "Annual"); err != nil {
		panic(err)
	}

	res, used, err := s.QueryBestContext(ctx,
		"SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id")
	if err != nil {
		panic(err)
	}
	fmt.Println("answered via:", used.Used[0])
	for _, row := range res.Sorted().Tuples {
		fmt.Printf("plan %v earned %v\n", row[0], row[1])
	}
	// Output:
	// answered via: Annual
	// plan 7 earned 350
	// plan 8 earned 40
}

// ExampleSystem_RewritingsContext enumerates every usable rewriting of a query
// instead of executing one.
func ExampleSystem_RewritingsContext() {
	s := aggview.New()
	s.MustLoad(`
		CREATE TABLE R1(A, B, C, D);
		CREATE VIEW V41 AS SELECT A, C, COUNT(D) FROM R1 WHERE B = D GROUP BY A, C;
	`)
	rws, err := s.RewritingsContext(context.Background(), "SELECT A, COUNT(B) FROM R1 WHERE B = D GROUP BY A")
	if err != nil {
		panic(err)
	}
	for _, r := range rws {
		fmt.Println(r.Query.SQL())
	}
	// Output:
	// SELECT A, SUM(count_D) FROM V41 GROUP BY A
}

// ExampleSystem_TrackViewContext maintains a materialized summary under
// inserts.
func ExampleSystem_TrackViewContext() {
	ctx := context.Background()
	s := aggview.New()
	s.MustLoad(`
		CREATE TABLE Txns(Txn_Id, Acct_Id, Amount) KEY(Txn_Id);
		CREATE VIEW Totals AS SELECT Acct_Id, SUM(Amount) FROM Txns GROUP BY Acct_Id;
	`)
	inc, err := s.TrackViewContext(ctx, "Totals")
	if err != nil {
		panic(err)
	}
	fmt.Println("incremental:", inc)
	for i := int64(0); i < 4; i++ {
		if err := s.InsertContext(ctx, "Txns", []aggview.Value{aggview.Int(i), aggview.Int(i % 2), aggview.Int(10)}); err != nil {
			panic(err)
		}
	}
	res, err := s.QueryContext(ctx, "SELECT Acct_Id, sum_Amount FROM Totals")
	if err != nil {
		panic(err)
	}
	for _, row := range res.Sorted().Tuples {
		fmt.Printf("account %v total %v\n", row[0], row[1])
	}
	// Output:
	// incremental: true
	// account 0 total 20
	// account 1 total 20
}
