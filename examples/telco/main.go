// Telco reproduces the paper's motivating Example 1.1 at scale: a
// telephony data warehouse where the Calls table is large and a monthly
// per-plan earnings view V1 is materialized. The query asking for plans
// that earned less than a threshold in 1995 is answered either from the
// base tables or by collapsing the view's monthly groups into annual
// ones — and the program measures the speedup.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/engine"
)

func main() {
	ctx := context.Background()
	calls := flag.Int("calls", 200000, "number of call records")
	threshold := flag.Int("threshold", 1000000, "earnings threshold (cents)")
	flag.Parse()

	s := aggview.New()
	fmt.Printf("generating warehouse with %d calls...\n", *calls)
	if err := datagen.Telco(datagen.TelcoConfig{Calls: *calls, Seed: 1}).Load(ctx, s); err != nil {
		log.Fatal(err)
	}

	// The materialized view V1 of Example 1.1: monthly earnings per plan.
	s.MustDefineView("V1", `
		SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
		GROUP BY Calls.Plan_Id, Plan_Name, Month, Year`)
	if _, err := s.TrackViewContext(ctx, "V1"); err != nil {
		log.Fatal(err)
	}
	nCalls, _ := s.DB.NumRows("Calls")
	nV1, _ := s.DB.NumRows("V1")
	fmt.Printf("|Calls| = %d rows, |V1| = %d rows (%.0fx smaller)\n\n",
		nCalls, nV1, float64(nCalls)/float64(nV1))

	// The query Q of Example 1.1.
	q := fmt.Sprintf(`
		SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge)
		FROM Calls, Calling_Plans
		WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995
		GROUP BY Calling_Plans.Plan_Id, Plan_Name
		HAVING SUM(Charge) < %d`, *threshold)

	explain, err := s.Explain(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(explain)

	// Best-of-three timings to damp GC and warm-up noise.
	var direct, rewritten *aggview.Result
	var used *aggview.Rewriting
	directTime, rewrittenTime := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		d, err := s.QueryContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		if e := time.Since(start); e < directTime {
			directTime = e
		}
		direct = d

		start = time.Now()
		r, u, err := s.QueryBestContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		if e := time.Since(start); e < rewrittenTime {
			rewrittenTime = e
		}
		rewritten, used = r, u
	}

	if used == nil {
		log.Fatal("expected the optimizer to choose the view-based plan")
	}
	if !engine.ResultsEqualBag(direct, rewritten) {
		log.Fatal("BUG: rewritten answer differs from the direct answer")
	}

	fmt.Printf("plans earning < %d cents in 1995:\n%s\n", *threshold, rewritten.Sorted())
	fmt.Printf("direct evaluation over Calls:   %v\n", directTime)
	fmt.Printf("rewritten evaluation over V1:   %v\n", rewrittenTime)
	fmt.Printf("speedup:                        %.1fx\n",
		float64(directTime)/float64(rewrittenTime))
}
