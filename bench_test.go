package aggview_test

// testing.B benchmarks for the experiment tables of EXPERIMENTS.md. The
// direct-versus-rewritten ones (E1-E4) are generated from the case table
// in internal/experiments, which also drives cmd/benchrunner; the rest
// isolate in their measured loop the operation whose cost the
// corresponding table reports.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"aggview"

	"aggview/internal/constraints"
	"aggview/internal/engine"
	"aggview/internal/experiments"
	"aggview/internal/ir"
	"aggview/internal/obs"
)

// prepareCase builds the system of one direct-versus-rewritten case at
// rows (0: the case's benchmark point).
func prepareCase(b *testing.B, id string, rows int) (*experiments.Case, *aggview.System, *ir.Query, *aggview.Rewriting) {
	b.Helper()
	c, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	p := c.Bench
	if rows > 0 {
		p.Rows = rows
	}
	s, q, rw := c.Prepare(b.Context(), p)
	if rw == nil {
		b.Fatalf("%s: no rewriting", id)
	}
	return c, s, q, rw
}

// benchExec measures one engine execution of q per iteration at the
// given worker count (0: GOMAXPROCS).
func benchExec(b *testing.B, name string, s *aggview.System, q *ir.Query, workers int) {
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := engine.NewEvaluator(s.DB, s.Views)
			ev.Workers = workers
			if _, err := ev.ExecContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchCase generates one case's benchmarks: the query over the base
// tables ("direct" column of its table), the picked rewriting over the
// materialized view ("rewritten"), and the direct form at one and two
// workers.
func benchCase(b *testing.B, id string) {
	_, s, q, rw := prepareCase(b, id, 0)
	benchExec(b, "direct", s, q, 0)
	benchExec(b, "rewritten", s, rw.Query, 0)
	for _, w := range []int{1, 2} {
		benchExec(b, fmt.Sprintf("direct-workers=%d", w), s, q, w)
	}
}

func BenchmarkE1Telco(b *testing.B)        { benchCase(b, "E1") } // table T1
func BenchmarkE2ConjView(b *testing.B)     { benchCase(b, "E2") } // table T2
func BenchmarkE3Coalesce(b *testing.B)     { benchCase(b, "E3") } // table T3
func BenchmarkE4Multiplicity(b *testing.B) { benchCase(b, "E4") } // table T4

// BenchmarkAggGroup measures the pure streaming group-fold kernel (no
// join) on the E1 system at one and two workers.
func BenchmarkAggGroup(b *testing.B) {
	c, s, _, _ := prepareCase(b, "E1", 0)
	q, err := s.Parse(c.Fold)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		benchExec(b, fmt.Sprintf("workers=%d", w), s, q, w)
	}
}

// BenchmarkE5MultiView measures the full iterative enumeration over
// three combinable views, including the machine checks (table T5).
func BenchmarkE5MultiView(b *testing.B) {
	for i := 0; i < b.N; i++ {
		found, equal, orderFree := experiments.RunMultiView(context.Background(), 3)
		if found != 7 || !equal || !orderFree {
			b.Fatal("Theorem 3.2 check failed")
		}
	}
}

// BenchmarkE6SearchCost measures rewriting enumeration over 32 candidate
// views for a two-table query (table T6).
func BenchmarkE6SearchCost(b *testing.B) {
	rw, q := experiments.SearchCostSetup(2, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rws, err := rw.RewritingsContext(context.Background(), q); err != nil || len(rws) == 0 {
			b.Fatal("no rewritings", err)
		}
	}
}

// BenchmarkE7Keys measures the Section 5 path: many-to-1 mapping search
// plus chase-based containment verification (table T7).
func BenchmarkE7Keys(b *testing.B) {
	_, rw, q, v := experiments.KeysSetup(b.Context(), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rws, err := rw.RewriteOnceContext(context.Background(), q, v); err != nil || len(rws) == 0 {
			b.Fatal("Example 5.1 rewriting missing", err)
		}
	}
}

// BenchmarkE8Negative measures the refusal path over the whole gallery
// of impossible constructions (table T8).
func BenchmarkE8Negative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.NegativeCases(b.Context()) {
			if c.Found != 0 {
				b.Fatalf("%s: expected refusal", c.Name)
			}
		}
	}
}

// BenchmarkE9Closure measures closing a 32-atom conjunction (table T9).
func BenchmarkE9Closure(b *testing.B) {
	conj := experiments.ClosureWorkload(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		constraints.Close(conj)
	}
}

// BenchmarkE9Implies measures one entailment query against a closed
// 32-atom conjunction (table T9).
func BenchmarkE9Implies(b *testing.B) {
	conj := experiments.ClosureWorkload(32)
	cl := constraints.Close(conj)
	probe := constraints.Atom{Op: ir.OpLeq, L: constraints.V(0), R: constraints.V(5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Implies(probe)
	}
}

// BenchmarkE10Having measures the HAVING pre-processing ablation pair
// (table T10): detection with normalization enabled.
func BenchmarkE10Having(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.HavingCases(b.Context()) {
			if c.With == 0 {
				b.Fatal("pre-processing should enable the rewriting")
			}
		}
	}
}

// BenchmarkQueryBest measures the full facade path — parse, plan,
// rewrite, execute — on the telco workload.
func BenchmarkQueryBest(b *testing.B) {
	c, s, _, _ := prepareCase(b, "E1", 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.QueryBestContext(context.Background(), c.Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareCold measures one cold plan preparation — parse,
// flatten, the full rewrite search over the six tracked views, costing —
// of the paper's Q with its constants cycling, so every iteration's
// closures and keys are new (what the benchmark's plan_cold workload
// pays per request).
func BenchmarkPrepareCold(b *testing.B) {
	ctx := context.Background()
	sys := warehouse(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sys.PrepareContext(ctx, fmt.Sprintf(paperQMonth, 1994+i%3, 1+i%12, 5000+i))
		if err != nil || !p.Rewritten() {
			b.Fatalf("cold prepare: rewritten=%v err=%v", p != nil && p.Rewritten(), err)
		}
	}
}

// BenchmarkPlanCold measures what BenchmarkPrepareCold does through the
// handler and the wire client in process, as bench/'s plan_cold workload
// sends it: every statement is new text with a new canonical key, so each
// request is a plan-cache miss that parses, searches and executes.
func BenchmarkPlanCold(b *testing.B) {
	ctx := context.Background()
	sys := warehouse(b, 1000)
	client := inProcess(b, sys)
	n := 0 // counts across the runs the framework makes, so no text repeats
	b.Run("served", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n++
			resp, err := client.Query(ctx, fmt.Sprintf(paperQMonth, 1994+n%3, 1+n%12, 5000+n))
			if err != nil {
				b.Fatal(err)
			}
			if resp.Cache != "miss" || len(resp.Used) == 0 {
				b.Fatalf("cold served query: cache=%q used=%v", resp.Cache, resp.Used)
			}
		}
	})
}

// BenchmarkScanAgg measures the engine's scan-filter-join-fold path on
// the benchmark's four base_scan shapes over a 100000-row warehouse, at
// one worker and at two: what a query no view answers costs, and whether
// the second worker pays on this host. by_day_float is by_day over a
// float copy of Charge, the cost of the exact float fold (value.Sum)
// beside the int one; ns/row divides by the 100000 Calls rows.
func BenchmarkScanAgg(b *testing.B) {
	const calls = 100_000
	ctx := context.Background()
	sys := warehouse(b, calls)
	shapes := scanShapes(b, sys)
	src, err := sys.QueryContext(ctx, "SELECT Day, Charge FROM Calls")
	if err != nil {
		b.Fatal(err)
	}
	sys.MustLoad("CREATE TABLE FCalls(Day, Charge);")
	for _, t := range src.Tuples {
		t[1] = aggview.Float(float64(t[1].AsInt()))
	}
	if err := sys.InsertContext(ctx, "FCalls", src.Tuples...); err != nil {
		b.Fatal(err)
	}
	shapes = append(shapes, scanShape{"by_day_float", `SELECT Day, SUM(Charge), COUNT(Charge) FROM FCalls GROUP BY Day`})
	for _, sh := range shapes {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, w), func(b *testing.B) {
				sys.Opts.Workers = w
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res, err := sys.QueryContext(ctx, sh.sql); err != nil || res.Len() == 0 {
						b.Fatalf("empty result or error: %v", err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/calls, "ns/row")
			})
		}
	}
}

// BenchmarkViewRead measures a cache-hit read of each of the benchmark's
// six view_hit shapes over a 100000-row warehouse: engine runs the
// prepared plan to typed columns (what the /query handler calls), served
// sends the statement through the handler and the wire client in process,
// as bench/ does. It is where the per-template ns and a -cpuprofile split
// of a view read come from without touching bench/.
func BenchmarkViewRead(b *testing.B) {
	const calls = 100_000
	ctx := context.Background()
	sys := warehouse(b, calls)
	client := inProcess(b, sys)
	for _, sh := range viewShapes(calls) {
		p, err := sys.PrepareContext(ctx, sh.sql)
		if err != nil || len(p.Used) == 0 {
			b.Fatalf("%s: no plan over a view: %v", sh.name, err)
		}
		b.Run(sh.name+"/engine", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := sys.ExecPreparedColumns(ctx, p, nil); err != nil || res.NumRows() == 0 {
					b.Fatalf("empty result or error: %v", err)
				}
			}
		})
		b.Run(sh.name+"/served", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if resp, err := client.Query(ctx, sh.sql); err != nil || len(resp.Rows) == 0 || len(resp.Used) == 0 {
					b.Fatalf("empty reply, no view or error: %v", err)
				}
			}
		})
	}
}

// BenchmarkE9ClosureCached measures the memoized closure hit path
// against BenchmarkE9Closure's cold computation.
func BenchmarkE9ClosureCached(b *testing.B) {
	conj := experiments.ClosureWorkload(32)
	constraints.ResetCloseCache()
	constraints.CloseCached(conj)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		constraints.CloseCached(conj)
	}
}

// BenchmarkE11MaintainIncremental measures delta-merge maintenance of
// the chronicle summary per 100-row batch (table T11).
func BenchmarkE11MaintainIncremental(b *testing.B) {
	ctx := context.Background()
	s := experiments.MaintenanceSetup(ctx, 50000)
	if _, err := s.TrackViewContext(ctx, "DailyAcct"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.InsertContext(ctx, "Txns", experiments.MaintenanceBatch(50000+i*100, 100)...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainWarehouse measures the write path over the six
// tracked views of a 100000-row warehouse — E11 maintains one — with the
// statements TestWriteCostIsDeltaSized weighs: a 16-row insert, an 8-row
// delete and an 8-row update of the rows the inserts added. execs/op is
// what engine.exec counts per timed statement: 0, as every view reads
// the write's delta table itself — V1, the one view that joins, beside
// each row's plan, looked up on Calling_Plans' key (a DELETE's or
// UPDATE's match is not an engine.exec).
func BenchmarkMaintainWarehouse(b *testing.B) {
	ctx := context.Background()
	const calls, batch = 100_000, 16
	sys := warehouse(b, calls)
	sys.Metrics = obs.NewMetrics()
	execs := sys.Metrics.Counter("engine.exec")
	rng := rand.New(rand.NewSource(2))
	next := calls
	insert := func() {
		rows := make([][]aggview.Value, batch)
		for r := range rows {
			rows[r] = callRow(rng, next)
			next++
		}
		if err := sys.InsertContext(ctx, "Calls", rows...); err != nil {
			b.Fatal(err)
		}
	}
	// untimed is the executions of the inserts a delete or an update
	// runs with the timer stopped, which execs/op leaves out.
	var untimed int64
	insertUntimed := func(b *testing.B) {
		b.StopTimer()
		e0 := execs.Load()
		insert()
		untimed += execs.Load() - e0
		b.StartTimer()
	}
	run := func(b *testing.B, write func(i int)) {
		b.ReportAllocs()
		e0 := execs.Load()
		untimed = 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			write(i)
		}
		b.StopTimer()
		b.ReportMetric(float64(execs.Load()-e0-untimed)/float64(b.N), "execs/op")
	}
	b.Run("insert", func(b *testing.B) { run(b, func(int) { insert() }) })
	// Each delete and update reaches 8 rows an untimed insert before it
	// added, so the table neither grows nor shrinks by much.
	b.Run("delete", func(b *testing.B) {
		run(b, func(int) {
			insertUntimed(b)
			if n, err := sys.DeleteContext(ctx, "Calls", fmt.Sprintf("Call_Id >= %d AND Call_Id < %d", next-8, next)); err != nil || n != 8 {
				b.Fatalf("deleted %d rows, want 8 (err %v)", n, err)
			}
		})
	})
	b.Run("update", func(b *testing.B) {
		run(b, func(i int) {
			if i%2 == 0 {
				insertUntimed(b)
			}
			lo := next - 16 + 8*(i%2)
			if n, err := sys.UpdateContext(ctx, "Calls", "Charge = Charge + 1", fmt.Sprintf("Call_Id >= %d AND Call_Id < %d", lo, lo+8)); err != nil || n != 8 {
				b.Fatalf("updated %d rows, want 8 (err %v)", n, err)
			}
		})
	})
}

// BenchmarkE12Advise measures the advisor's recommendation pass over the
// three-query telco workload (table T12).
func BenchmarkE12Advise(b *testing.B) {
	s, workload := experiments.AdvisorSetup(b.Context(), 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := s.AdviseContext(context.Background(), workload, nil, 0)
		if err != nil || len(recs) == 0 {
			b.Fatal("advisor failed")
		}
	}
}

// BenchmarkE13Baseline measures both detectors over the Section 6
// comparison corpus (table T13).
func BenchmarkE13Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.BaselineCases(b.Context()) {
			if !c.Rewriter {
				b.Fatal("corpus case lost")
			}
		}
	}
}
