// Advisor demonstrates workload-driven view selection (the "which views
// to cache" question from the paper's conclusion): given a telco
// reporting workload, the advisor derives candidate summary tables,
// picks a set under a space budget, and the program shows the workload
// speeding up once the recommendations are materialized — and checks
// that every query's answer stays the same.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/engine"
)

func main() {
	ctx := context.Background()
	s := aggview.New()
	if err := datagen.Telco(datagen.TelcoConfig{Calls: 100000, Seed: 3}).Load(ctx, s); err != nil {
		log.Fatal(err)
	}

	workload := []string{
		`SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id`,
		`SELECT Plan_Id, Month, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month`,
		`SELECT Year, AVG(Charge) FROM Calls GROUP BY Year`,
		`SELECT Cust_Id, COUNT(Charge) FROM Calls WHERE Year = 1996 GROUP BY Cust_Id`,
	}
	weights := []float64{10, 5, 2, 1}

	recs, err := s.AdviseContext(ctx, workload, weights, 50000)
	if err != nil {
		log.Fatal(err)
	}
	if len(recs) == 0 {
		log.Fatal("advisor found nothing to recommend")
	}
	fmt.Printf("advisor recommends %d view(s):\n", len(recs))
	for _, r := range recs {
		fmt.Printf("  %s\n    est. rows %.0f, modeled benefit %.0f, helps queries %v\n",
			r.View.SQL(), r.EstRows, r.Benefit, r.Helps)
	}

	// runWorkload times the weighted workload (best of three) and returns
	// each query's answer.
	runWorkload := func() (time.Duration, []*aggview.Result) {
		best := time.Duration(1 << 62)
		answers := make([]*aggview.Result, len(workload))
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for i, q := range workload {
				reps := int(weights[i])
				for k := 0; k < reps; k++ {
					res, _, err := s.QueryBestContext(ctx, q)
					if err != nil {
						log.Fatal(err)
					}
					answers[i] = res
				}
			}
			if e := time.Since(start); e < best {
				best = e
			}
		}
		return best, answers
	}

	before, want := runWorkload()
	names, err := s.AdoptRecommendations(ctx, recs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmaterialized %v\n", names)
	after, got := runWorkload()
	for i, q := range workload {
		if !engine.ResultsEqualBag(want[i], got[i]) {
			log.Fatalf("BUG: answer over the materialized views differs from the answer before:\n%s", q)
		}
	}

	fmt.Printf("\nworkload time before: %v\n", before)
	fmt.Printf("workload time after:  %v\n", after)
	fmt.Printf("speedup:              %.1fx\n", float64(before)/float64(after))
}
