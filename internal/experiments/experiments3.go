package experiments

// Extension experiments E11 and E12 cover the two pieces of machinery
// the paper assumes or defers: maintaining the summary tables it
// rewrites onto (Section 1's warehouse/chronicle scenarios; maintenance
// itself is delegated to [BLT86, GMS93]), and choosing which views to
// cache (named as future work in the conclusion).

import (
	"context"
	"fmt"
	"io"
	"time"

	"aggview"
	"aggview/internal/datagen"
	"aggview/internal/engine"
	"aggview/internal/value"
)

// maintenance compares incremental delta-merge maintenance against
// recompute-per-batch for the chronicle summary table (E11, table T11).
func maintenance(ctx context.Context, w io.Writer, quick bool) {
	base := 100000
	batches, batchSize := 50, 100
	if quick {
		base, batches = 20000, 20
	}
	incr, reco, consistent := RunMaintenance(ctx, base, batches, batchSize)
	t := newTable("base rows", "batches x size", "incremental (total)", "recompute (total)", "ratio", "consistent")
	t.row(base, fmt.Sprintf("%d x %d", batches, batchSize), incr, reco,
		float64(reco)/float64(incr), consistent)
	t.flush(w)
}

// RunMaintenance measures one maintenance comparison. It returns the
// total time to apply the batches incrementally, the total time under
// recompute-per-batch, and whether the incremental materialization
// matched a recomputation at the end.
func RunMaintenance(ctx context.Context, baseRows, batches, batchSize int) (incr, reco time.Duration, consistent bool) {
	mkBatch := func(b int) [][]value.Value {
		return MaintenanceBatch(baseRows+b*batchSize, batchSize)
	}

	// Incremental: the tracked view absorbs each batch.
	s1 := MaintenanceSetup(ctx, baseRows)
	if inc, err := s1.TrackViewContext(ctx, "DailyAcct"); err != nil || !inc {
		panic("DailyAcct should track incrementally")
	}
	start := time.Now()
	for b := 0; b < batches; b++ {
		if err := s1.InsertContext(ctx, "Txns", mkBatch(b)...); err != nil {
			panic(err)
		}
	}
	incr = time.Since(start)

	// Recompute-per-batch: an untracked system re-runs the definition.
	s2 := MaintenanceSetup(ctx, baseRows)
	start = time.Now()
	for b := 0; b < batches; b++ {
		if err := s2.InsertContext(ctx, "Txns", mkBatch(b)...); err != nil {
			panic(err)
		}
		if _, err := s2.QueryContext(ctx, dailyAcct); err != nil {
			panic(err)
		}
	}
	reco = time.Since(start)

	// Consistency: the incremental materialization equals recomputation.
	final, err := s1.QueryContext(ctx, dailyAcct)
	if err != nil {
		panic(err)
	}
	got, _ := s1.DB.Get("DailyAcct")
	return incr, reco, engine.ResultsEqualBag(final, got)
}

// dailyAcct is the definition of E11's summary view DailyAcct.
const dailyAcct = "SELECT Acct_Id, Day, SUM(Amount), COUNT(Amount), MIN(Amount), MAX(Amount) FROM Txns GROUP BY Acct_Id, Day"

// MaintenanceSetup builds E11's chronicle system of baseRows
// transactions with its summary view DailyAcct defined, not tracked.
func MaintenanceSetup(ctx context.Context, baseRows int) *aggview.System {
	s := load(ctx, datagen.Chronicle(datagen.ChronicleConfig{Accounts: 100, Txns: baseRows, Seed: 9}))
	s.MustDefineView("DailyAcct", dailyAcct)
	return s
}

// MaintenanceBatch returns n new Txns rows with ids from firstID.
func MaintenanceBatch(firstID, n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for i := range rows {
		id := int64(firstID + i)
		rows[i] = []value.Value{
			value.Int(id), value.Int(id % 100), value.Int(1 + id%30), value.Int(id % 500),
		}
	}
	return rows
}

// advisor runs the workload-driven view selection end to end (E12,
// table T12): modeled benefit and measured workload time before and
// after materializing the recommendations.
func advisor(ctx context.Context, w io.Writer, quick bool) {
	calls := 100000
	if quick {
		calls = 20000
	}
	nViews, viewRows, before, after, equal := RunAdvisor(ctx, calls)
	t := newTable("|Calls|", "views picked", "view rows", "workload before", "workload after", "speedup", "answers equal")
	t.row(calls, nViews, viewRows, before, after, float64(before)/float64(after), equal)
	t.flush(w)
}

// AdvisorSetup builds E12's view-less telco system and its three-query
// workload.
func AdvisorSetup(ctx context.Context, calls int) (*aggview.System, []string) {
	return load(ctx, datagen.Telco(datagen.TelcoConfig{Calls: calls, Seed: 3})), []string{
		`SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id`,
		`SELECT Plan_Id, Month, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month`,
		`SELECT Year, AVG(Charge) FROM Calls GROUP BY Year`,
	}
}

// RunAdvisor measures the advisor experiment at one scale.
func RunAdvisor(ctx context.Context, calls int) (nViews, viewRows int, before, after time.Duration, equal bool) {
	s, workload := AdvisorSetup(ctx, calls)

	run := func() (time.Duration, []*engine.Relation) {
		var results []*engine.Relation
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			results = results[:0]
			start := time.Now()
			for _, q := range workload {
				r, _, err := s.QueryBestContext(ctx, q)
				if err != nil {
					panic(err)
				}
				results = append(results, r)
			}
			if e := time.Since(start); e < best {
				best = e
			}
		}
		return best, results
	}

	before, beforeRes := run()
	recs, err := s.AdviseContext(ctx, workload, nil, 0)
	if err != nil {
		panic(err)
	}
	names, err := s.AdoptRecommendations(ctx, recs)
	if err != nil {
		panic(err)
	}
	after, afterRes := run()

	equal = true
	for i := range beforeRes {
		if !engine.ResultsEqualBag(beforeRes[i], afterRes[i]) {
			equal = false
		}
	}
	rows := 0
	for _, n := range names {
		if n, ok := s.DB.NumRows(n); ok {
			rows += n
		}
	}
	return len(names), rows, before, after, equal
}
