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

// E11Maintenance compares incremental delta-merge maintenance against
// recompute-per-batch for the chronicle summary table (table T11).
func E11Maintenance(ctx context.Context, w io.Writer, quick bool) {
	header(w, "E11", "Summary-table maintenance (extension; Sec. 1 scenarios)",
		"append-only SUM/COUNT/MIN/MAX summaries maintain in time proportional to the delta, not the base table — the property that makes the paper's cached summary tables practical")
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
	mkDB := func() (*engine.DB, *ir.Registry) {
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
	mkBatch := func(b int) [][]value.Value {
		rows := make([][]value.Value, batchSize)
		for i := range rows {
			id := int64(baseRows + b*batchSize + i)
			rows[i] = []value.Value{
				value.Int(id), value.Int(id % 100), value.Int(1 + id%30), value.Int(id % 500),
			}
		}
		return rows
	}

	// Incremental.
	db1, reg1 := mkDB()
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
	db2, reg2 := mkDB()
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
	got, _ := m.Materialization("DailyAcct")
	return incr, reco, engine.MultisetEqual(final, got)
}

func mustView(reg *ir.Registry, name string) *ir.ViewDef {
	v, ok := reg.Get(name)
	if !ok {
		panic("missing view " + name)
	}
	return v
}

// E12Advisor runs the workload-driven view selection end to end (table
// T12): modeled benefit and measured workload time before and after
// materializing the recommendations.
func E12Advisor(ctx context.Context, w io.Writer, quick bool) {
	header(w, "E12", "View selection (extension; Sec. 7 future work)",
		"greedily chosen summary views under a space budget cut the measured workload time, and the modeled benefit points the same way")
	calls := 100000
	if quick {
		calls = 20000
	}
	nViews, viewRows, before, after, equal := RunAdvisor(ctx, calls)
	t := newTable("|Calls|", "views picked", "view rows", "workload before", "workload after", "speedup", "answers equal")
	t.row(calls, nViews, viewRows, before, after, float64(before)/float64(after), equal)
	t.flush(w)
}

// RunAdvisor measures the advisor experiment at one scale.
func RunAdvisor(ctx context.Context, calls int) (nViews, viewRows int, before, after time.Duration, equal bool) {
	workload := []string{
		`SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id`,
		`SELECT Plan_Id, Month, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id, Month`,
		`SELECT Year, AVG(Charge) FROM Calls GROUP BY Year`,
	}
	s := aggview.New()
	s.Catalog = datagen.TelcoCatalog()
	s.AdoptDB(datagen.Telco(datagen.TelcoConfig{Calls: calls, Seed: 3}),
		"Calls", "Calling_Plans", "Customer")

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
	names, err := s.AdoptRecommendations(recs)
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
