package aggview_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/server"
)

// paperQ is the paper's query Q with its year and threshold open, as the
// benchmark's view_hit workload sends it.
const paperQ = `SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = %d GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) < %d`

// viewShapes returns the benchmark's six view_hit templates — dashboard
// queries every one of which a tracked view of warehouse answers — for a
// warehouse of the given size (the paper's threshold sits near a plan's
// yearly total, so its HAVING keeps some plans and rejects others).
func viewShapes(calls int) []scanShape {
	perPlanYear := calls / 3 / 10 * 1000
	return []scanShape{
		{"paper_q_1995", fmt.Sprintf(paperQ, 1995, perPlanYear)},
		{"paper_q_1996", fmt.Sprintf(paperQ, 1996, perPlanYear+perPlanYear/50)},
		{"plan_month", `SELECT Plan_Id, Month, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id, Month`},
		{"plan_total", `SELECT Plan_Id, SUM(Charge), COUNT(Charge) FROM Calls GROUP BY Plan_Id`},
		{"per_customer", `SELECT Cust_Id, SUM(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`},
		{"plan_max", `SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Year = 1994 GROUP BY Plan_Id`},
	}
}

// inProcess serves sys without telemetry and returns a wire client on the
// in-process transport, as the benchmark's.
func inProcess(t testing.TB, sys *aggview.System) *server.Client {
	t.Helper()
	srv := server.New(sys, server.Config{FlightRecorder: -1, SlowLogSize: -1})
	t.Cleanup(srv.Close)
	return &server.Client{Base: "http://inproc", HTTP: &server.InProcessExec{S: srv}}
}

// TestReadCostIsRowSized is the regression guard for the cache-hit read
// path. The engine's columnar entry point allocates per query, not per
// row: a warm 500-group view read costs a fixed number of objects — the
// evaluator, the plan's batch, the table around the result's columns — so
// at most 16 (10 measured, 13 over 50 groups, since a prepared
// statement keeps its engine plan and a one-morsel read runs inline; 31
// before, when the bound was 36, and 41 while the read still re-grouped
// the view's rows), and no more than 8 above the same shape over 50
// groups. Its
// plan is a group-preserving select-project whose result shares the
// view's stored vectors, so it allocates no cell: at most 4 KB a read
// (about 2 KB measured; 15 KB when it folded into accumulators and
// copied them out). Through the wire client a row costs its bytes in the
// handler's pooled body and its substrings in the client's one backing:
// under 2.5 objects per row end to end (about 17 before PR 19, when the
// engine boxed each tuple, the handler built a [][]string and the client
// decoded through encoding/json; 3 until the engine stopped boxing cells).
func TestReadCostIsRowSized(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 10000-row warehouse")
	}
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop what the pipeline recycles")
	}
	const sql = `SELECT Cust_Id, SUM(Charge), MAX(Charge) FROM Calls GROUP BY Cust_Id`
	const groups = 500
	ctx := context.Background()
	sys := warehouse(t, 10_000)

	columnar := func(sql string, rows int) (objects float64, bytes uint64) {
		p, err := sys.PrepareContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Used) == 0 {
			t.Fatalf("plan does not read a view: %s", p.Key)
		}
		read := func() {
			if res, err := sys.ExecPreparedColumns(ctx, p, nil); err != nil || res.NumRows() != rows {
				t.Fatalf("ExecPreparedColumns: %d rows, err %v", res.NumRows(), err)
			}
		}
		return testing.AllocsPerRun(20, read), medianAllocated(read)
	}
	engineAllocs, engineBytes := columnar(sql, groups)
	fewAllocs, _ := columnar(`SELECT Cust_Id, SUM(Charge), MAX(Charge) FROM Calls WHERE Cust_Id < 50 GROUP BY Cust_Id`, 50)

	client := inProcess(t, sys)
	read := func() {
		resp, err := client.Query(ctx, sql)
		if err != nil || len(resp.Rows) != groups || len(resp.Used) == 0 {
			t.Fatalf("Query: %d rows, used %v, err %v", len(resp.Rows), resp.Used, err)
		}
	}
	read() // the miss that plans the statement and aliases its text
	wireAllocs := testing.AllocsPerRun(20, read)

	t.Logf("objects allocated per warm view read: %.0f in the engine for %d groups (%d bytes), %.0f for 50, %.0f through the wire client", engineAllocs, groups, engineBytes, fewAllocs, wireAllocs)
	if engineAllocs > 16 || engineAllocs > fewAllocs+8 {
		t.Errorf("ExecPreparedColumns allocated %.0f objects for %d rows and %.0f for 50, want at most 16 and at most 8 apart: a constant per query", engineAllocs, groups, fewAllocs)
	}
	if engineBytes > 4<<10 {
		t.Errorf("ExecPreparedColumns allocated %d bytes for %d rows, want at most 4 KB: the read folds or copies the view's cells", engineBytes, groups)
	}
	if wireAllocs >= 2.5*groups {
		t.Errorf("a wire read allocated %.0f objects for %d rows, want under 2.5 per row", wireAllocs, groups)
	}
}

// TestServedReadsBoxNothing is the guard that a served read stays
// columnar. The six view_hit shapes and the four base_scan shapes go
// through the /query handler, cold and warm, and engine.result.cells_boxed
// — what ExecContext adds to for every cell it boxes into a tuple — must
// not move while engine.result.rows counts every row sent: a handler (or
// a layer under it) that fell back to the row-shaped entry point would
// read the same answers, only slower, and fails here instead. The same
// shapes through Query, which does return tuples, add rows x width. Both
// counters are deterministic: the same at one worker and at GOMAXPROCS.
func TestServedReadsBoxNothing(t *testing.T) {
	const calls = 6000
	ctx := context.Background()
	var first map[string]int64
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		sys := warehouse(t, calls)
		sys.Opts.Workers = workers
		shapes := append(viewShapes(calls), scanShapes(t, sys)...)
		client := inProcess(t, sys) // installs the server's registry on sys
		counter := func(name string) int64 { return sys.Metrics.Counter(name).Load() }
		rows0, boxed0 := counter("engine.result.rows"), counter("engine.result.cells_boxed")

		sent := int64(0)
		for round := 0; round < 2; round++ {
			for i, sh := range shapes {
				resp, err := client.Query(ctx, sh.sql)
				if err != nil || len(resp.Rows) == 0 {
					t.Fatalf("%s: %d rows, err %v", sh.name, len(resp.Rows), err)
				}
				if viewRead := i < 6; viewRead != (len(resp.Used) > 0) {
					t.Fatalf("%s: answered from %v", sh.name, resp.Used)
				}
				sent += int64(len(resp.Rows))
			}
		}
		got := map[string]int64{"rows": counter("engine.result.rows") - rows0, "cells_boxed": counter("engine.result.cells_boxed") - boxed0}
		if got["cells_boxed"] != 0 || got["rows"] != sent {
			t.Errorf("workers %d: serving %d rows moved engine.result.rows by %d and engine.result.cells_boxed by %d, want %d and 0", workers, sent, got["rows"], got["cells_boxed"], sent)
		}
		text, err := client.MetricsText(ctx, false)
		if err != nil || !strings.Contains(text, "engine.result.rows") || !strings.Contains(text, "engine.result.cells_boxed") {
			t.Errorf("workers %d: /metrics does not list the result counters (err %v)", workers, err)
		}

		cells := int64(0)
		for _, sh := range shapes {
			res, err := sys.QueryContext(context.Background(), sh.sql)
			if err != nil {
				t.Fatal(err)
			}
			cells += int64(res.Len() * len(res.Attrs))
		}
		if d := counter("engine.result.cells_boxed") - boxed0; d != cells {
			t.Errorf("workers %d: Query boxed %d cells, engine.result.cells_boxed moved by %d", workers, cells, d)
		}
		got["cells_queried"] = cells
		if first == nil {
			first = got
		} else if fmt.Sprint(got) != fmt.Sprint(first) {
			t.Errorf("result counters at %d workers %v, at one worker %v", workers, got, first)
		}
	}
}

// TestGroupPreservingReadsSkipTheFold is the guard that a group-preserving
// plan runs as a select-project. per_customer, plan_month and plan_max are
// each one view row per query group (VCust by Cust_Id; VPlanMonth and
// VRange with Year pinned), so their warm served reads must leave
// engine.agg.morsels_direct and engine.agg.morsels_hashed alone, while
// paper_q_1995 (V1's months coalesce) and plan_total (VPlanMonth's months
// and years coalesce) still fold a morsel each.
func TestGroupPreservingReadsSkipTheFold(t *testing.T) {
	const calls = 6000
	ctx := context.Background()
	sys := warehouse(t, calls)
	client := inProcess(t, sys)
	folds := func() int64 {
		return sys.Metrics.Counter("engine.agg.morsels_direct").Load() + sys.Metrics.Counter("engine.agg.morsels_hashed").Load()
	}
	preserving := map[string]bool{"per_customer": true, "plan_month": true, "plan_max": true, "paper_q_1995": false, "plan_total": false}
	for _, sh := range viewShapes(calls) {
		want, ok := preserving[sh.name]
		if !ok {
			continue
		}
		if _, err := client.Query(ctx, sh.sql); err != nil { // the miss that plans it
			t.Fatal(err)
		}
		before := folds()
		resp, err := client.Query(ctx, sh.sql)
		if err != nil || len(resp.Rows) == 0 || len(resp.Used) == 0 {
			t.Fatalf("%s: %d rows from %v, err %v", sh.name, len(resp.Rows), resp.Used, err)
		}
		if moved := folds() - before; (moved == 0) != want {
			t.Errorf("%s over %v: a warm read folded %d morsels; a group-preserving plan folds none, any other at least one (group-preserving: %v)", sh.name, resp.Used, moved, want)
		}
	}
}

// TestWarmReadsPayForWhatTheyRead pins what a warm read of each of the
// six view_hit shapes allocates beyond its result columns (at most one
// object a column: the cells it copied out of the view). Each is a
// fixed cost of the read — the evaluator, the batch, the result table,
// the pprof label — and the pins are what they measure; before the plan
// shape was derived once per prepared statement, the metric handles once
// per registry and a one-morsel input ran inline, the same reads
// allocated 38-67 objects in all. A read right after two collections,
// which empty the engine's pools, allocates for the rows it reads (under
// 8 KB for a 10-row view), not a morsel's worth of every scratch array
// (about 46 KB when a pool miss made a whole scratch).
func TestWarmReadsPayForWhatTheyRead(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 100000-row warehouse")
	}
	if raceDetector {
		t.Skip("the race detector makes sync.Pool drop what the pipeline recycles")
	}
	const calls = 100_000
	ctx := context.Background()
	sys := warehouse(t, calls)
	inProcess(t, sys) // the server's metrics registry, as the benchmark reads
	pinned := map[string]float64{"paper_q_1995": 21, "paper_q_1996": 21, "plan_month": 12, "plan_total": 11, "per_customer": 9, "plan_max": 12}
	for _, sh := range viewShapes(calls) {
		p, err := sys.PrepareContext(ctx, sh.sql)
		if err != nil || len(p.Used) == 0 {
			t.Fatalf("%s: no plan over a view: %v", sh.name, err)
		}
		var width int
		read := func() {
			res, err := sys.ExecPreparedColumns(ctx, p, nil)
			if err != nil || res.NumRows() == 0 {
				t.Fatalf("%s: empty result or error: %v", sh.name, err)
			}
			width = len(res.Attrs())
		}
		beyond := testing.AllocsPerRun(200, read) - float64(width)
		t.Logf("%s: %.0f objects a read beyond its %d result columns", sh.name, beyond, width)
		if beyond > pinned[sh.name] {
			t.Errorf("%s: a warm read allocates %.0f objects beyond its %d result columns, want at most %.0f", sh.name, beyond, width, pinned[sh.name])
		}
		if sh.name != "plan_max" {
			continue
		}
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		cold := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes for a read after two collections", sh.name, cold)
		if cold >= 8<<10 {
			t.Errorf("%s: a read after two collections allocates %d B, want under 8 KB: a pool miss costs more than the rows read", sh.name, cold)
		}
	}
}
