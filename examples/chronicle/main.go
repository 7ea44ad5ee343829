// Chronicle reproduces the paper's transaction-recording motivation
// (Section 1, [JMS95]): an append-only ledger so large that analytical
// queries should run against small maintained summary tables. Two
// summaries exist — per (account, day) and a keyed account directory
// view — and the iterative multi-view rewriting (Theorem 3.2) combines
// them.
package main

import (
	"context"
	"fmt"
	"log"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/engine"
)

func main() {
	ctx := context.Background()
	s := aggview.New()
	if err := datagen.Chronicle(datagen.ChronicleConfig{Accounts: 200, Txns: 100000, Seed: 5}).Load(ctx, s); err != nil {
		log.Fatal(err)
	}

	// Summary tables maintained alongside the chronicle: TrackViewContext keeps
	// them consistent as transactions stream in.
	s.MustDefineView("DailyAcct", `
		SELECT Acct_Id, Day, SUM(Amount), COUNT(Amount), MIN(Amount), MAX(Amount)
		FROM Txns GROUP BY Acct_Id, Day`)
	s.MustDefineView("BranchDir", `
		SELECT Acct_Id, Branch FROM Accounts`)
	for _, v := range []string{"DailyAcct", "BranchDir"} {
		inc, err := s.TrackViewContext(ctx, v)
		if err != nil {
			log.Fatal(err)
		}
		rel, _ := s.DB.Get(v)
		fmt.Printf("tracking %-10s %6d rows (incremental: %v)\n", v, rel.Len(), inc)
	}

	// A new day's transactions arrive; the summaries absorb the deltas.
	var newDay [][]aggview.Value
	for i := 0; i < 5000; i++ {
		newDay = append(newDay, []aggview.Value{
			aggview.Int(int64(100000 + i)), aggview.Int(int64(i % 200)),
			aggview.Int(31), aggview.Int(int64(i%900 - 100)),
		})
	}
	if err := s.InsertContext(ctx, "Txns", newDay...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d new transactions; summaries maintained in place\n", len(newDay))

	// Month-to-date branch flows: joins the ledger with the directory and
	// aggregates. The rewriter should eliminate BOTH base tables,
	// coalescing DailyAcct's per-day groups per branch and routing the
	// join through BranchDir.
	q := `
		SELECT Branch, SUM(Amount), COUNT(Amount)
		FROM Txns, Accounts
		WHERE Txns.Acct_Id = Accounts.Acct_Id
		GROUP BY Branch`

	rws, err := s.RewritingsContext(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d rewriting(s) found:\n", len(rws))
	var best *aggview.Rewriting
	for _, r := range rws {
		fmt.Printf("  using %v: %s\n", r.Used, r.Query.SQL())
		if len(r.Used) == 2 {
			best = r
		}
	}
	if best == nil {
		log.Fatal("expected a rewriting that uses both summary tables")
	}

	direct, err := s.QueryContext(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	viaViews, err := s.ExecRewritingContext(ctx, best)
	if err != nil {
		log.Fatal(err)
	}
	if !engine.ResultsEqualBag(direct, viaViews) {
		log.Fatal("BUG: summary-table answer differs from the ledger scan")
	}
	fmt.Printf("\nbranch flows (from summaries, verified against the ledger):\n%s\n", viaViews.Sorted())

	// A second query at daily granularity with a HAVING clause.
	q2 := `
		SELECT Acct_Id, Day, SUM(Amount)
		FROM Txns
		GROUP BY Acct_Id, Day
		HAVING SUM(Amount) > 5000 AND Acct_Id < 10`
	res, used, err := s.QueryBestContext(ctx, q2)
	if err != nil {
		log.Fatal(err)
	}
	if used == nil {
		log.Fatal("expected the daily summary to answer the HAVING query")
	}
	fmt.Printf("high-inflow account-days via %v: %d rows\n", used.Used, res.Len())
}
