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
	"aggview/internal/ir"
	"aggview/internal/maintain"
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

	// Incremental.
	db1, reg1 := MaintenanceSetup(baseRows)
	m := maintain.New(db1, reg1)
	if inc, err := m.TrackContext(ctx, "DailyAcct"); err != nil || !inc {
		panic("DailyAcct should track incrementally")
	}
	start := time.Now()
	for b := 0; b < batches; b++ {
		if err := m.InsertContext(ctx, "Txns", mkBatch(b)...); err != nil {
			panic(err)
		}
	}
	incr = time.Since(start)

	// Recompute-per-batch.
	db2, reg2 := MaintenanceSetup(baseRows)
	start = time.Now()
	for b := 0; b < batches; b++ {
		db2.Append("Txns", mkBatch(b)...)
		res, err := engine.NewEvaluator(db2, nil).ExecContext(ctx, mustView(reg2, "DailyAcct").Def)
		if err != nil {
			panic(err)
		}
		db2.Put("DailyAcct", res)
	}
	reco = time.Since(start)

	// Consistency: the incremental materialization equals recomputation.
	final, err := engine.NewEvaluator(db1, nil).ExecContext(ctx, mustView(reg1, "DailyAcct").Def)
	if err != nil {
		panic(err)
	}
	got, _ := db1.Get("DailyAcct")
	return incr, reco, engine.MultisetEqual(final, got)
}

// MaintenanceSetup builds E11's chronicle database of baseRows
// transactions and the registry holding its summary view DailyAcct.
func MaintenanceSetup(baseRows int) (*engine.DB, *ir.Registry) {
	db := datagen.Chronicle(datagen.ChronicleConfig{Accounts: 100, Txns: baseRows, Days: 30, Seed: 9})
	reg := ir.NewRegistry()
	def := ir.MustBuild(
		"SELECT Acct_Id, Day, SUM(Amount), COUNT(Amount), MIN(Amount), MAX(Amount) FROM Txns GROUP BY Acct_Id, Day",
		datagen.ChronicleCatalog())
	v, err := ir.NewViewDef("DailyAcct", def)
	if err != nil {
		panic(err)
	}
	if err := reg.Add(v); err != nil {
		panic(err)
	}
	return db, reg
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

func mustView(reg *ir.Registry, name string) *ir.ViewDef {
	v, ok := reg.Get(name)
	if !ok {
		panic("missing view " + name)
	}
	return v
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
func AdvisorSetup(calls int) (*aggview.System, []string) {
	s := aggview.New()
	s.Catalog = datagen.TelcoCatalog()
	s.AdoptDB(datagen.Telco(datagen.TelcoConfig{Calls: calls, Seed: 3}),
		"Calls", "Calling_Plans", "Customer")
	return s, []string{
		`SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id`,
		`SELECT Plan_Id, Month, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month`,
		`SELECT Year, AVG(Charge) FROM Calls GROUP BY Year`,
	}
}

// RunAdvisor measures the advisor experiment at one scale.
func RunAdvisor(ctx context.Context, calls int) (nViews, viewRows int, before, after time.Duration, equal bool) {
	s, workload := AdvisorSetup(calls)

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
		if !engine.MultisetEqual(beforeRes[i], afterRes[i]) {
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
