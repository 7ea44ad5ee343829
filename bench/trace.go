package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"aggview"
	"aggview/internal/constraints"
	"aggview/internal/engine"
	"aggview/internal/maintain"
	"aggview/internal/server"
	"aggview/internal/sqlparser"
	"aggview/internal/value"
)

// Span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program is instrumented). The spans of
// one request share Op; Parent is the span that caused this one.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Probe marks duplicate work timed for attribution only (parsing
	// the text again, running the search again, a scratch-copy apply):
	// it is inside its parent's interval but not part of what the
	// handler would have done, so the accounting leaves it out.
	Probe bool `json:"probe,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []Span
}

func (t *tracer) start(name string, parent, op int, probe bool) int {
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Probe: probe, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Nanoseconds() }

// layerTotals sums, per span name, the calls and the self time: a
// span's duration minus the part its child spans cover.
type layerTotals struct {
	calls  map[string]int
	selfNs map[string]int64
}

func (t *tracer) totals() layerTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	lt := layerTotals{calls: map[string]int{}, selfNs: map[string]int64{}}
	for _, s := range t.spans {
		lt.calls[s.Name]++
		lt.selfNs[s.Name] += s.End - s.Start - child[s.ID]
	}
	return lt
}

// perCall is the mean self time of one call, in microseconds.
func (lt layerTotals) perCall(name string) float64 {
	if lt.calls[name] == 0 {
		return 0
	}
	return float64(lt.selfNs[name]) / 1e3 / float64(lt.calls[name])
}

// perOp spreads a layer's self time over n requests, in microseconds.
func (lt layerTotals) perOp(name string, n int) float64 {
	return float64(lt.selfNs[name]) / 1e3 / float64(max(n, 1))
}

// handlerSteps are the non-probe spans a query or mutation root has as
// children: together with the handler's own share they make up
// server.handler_us.
var handlerSteps = []string{
	"aggview.plan_key", "server.plancache.lookup", "aggview.prepare", "engine.snapshot",
	"aggview.exec", "server.wire.encode", "server.wire.decode",
	"aggview.insert", "aggview.delete", "aggview.update",
}

// tracedNode is a node the harness drives step by step through public
// functions, in the order the handler takes them.
type tracedNode struct {
	*Node
	tr *tracer
	// shadow is a private maintainer over a copy of the base tables,
	// fed the same mutations, so maintenance is timed apart from the
	// facade around it; scratch is a second copy that times the engine's
	// copy-on-write append alone.
	shadow  *maintain.Maintainer
	scratch *engine.DB

	wireBytes, rowsReturned, misses, rewritings, searches int
}

// searchProbeEvery thins the search probe to one cache miss in eight
// (the first always): repeating every search would double plan_cold's
// garbage and slow the very steps the probe sits between.
const searchProbeEvery = 8

func newTracedNode(ctx context.Context, script string) (*tracedNode, error) {
	node, err := NewNode(ctx, script, false)
	if err != nil {
		return nil, err
	}
	tn := &tracedNode{Node: node, tr: &tracer{t0: time.Now()}, scratch: engine.NewDB()}
	shadowDB := engine.NewDB()
	for _, t := range node.Sys.Catalog.Tables() {
		rel, ok := node.Sys.DB.Get(t.Name)
		if !ok {
			return nil, fmt.Errorf("bench: table %s has no relation", t.Name)
		}
		shadowDB.Put(t.Name, rel)
		tn.scratch.Put(t.Name, rel)
	}
	tn.shadow = maintain.New(shadowDB, node.Sys.Views)
	tn.shadow.Workers = node.Sys.Opts.Workers
	for _, v := range viewDefs {
		if _, err := tn.shadow.TrackContext(ctx, v.Name); err != nil {
			return nil, fmt.Errorf("bench: shadow tracking %s: %w", v.Name, err)
		}
	}
	return tn, nil
}

// traceOp performs one request's steps itself, a span around each, and
// checks the outcome as the gated loop does.
func (tn *tracedNode) traceOp(ctx context.Context, i int, op Op, warm bool) error {
	tr, sys := tn.tr, tn.Sys
	root := tr.start("op", -1, i, false)
	defer tr.end(root)
	step := func(name string, probe bool, f func() error) error {
		id := tr.start(name, root, i, probe)
		err := f()
		tr.end(id)
		return err
	}
	if op.Kind == OpQuery {
		if err := step("sqlparser.parse", true, func() error { _, err := sqlparser.Parse(op.SQL); return err }); err != nil {
			return err
		}
		var key string
		if err := step("aggview.plan_key", false, func() (err error) { key, err = sys.PlanKey(op.SQL); return }); err != nil {
			return err
		}
		var p *aggview.Prepared
		var verdict string
		lookup := tr.start("server.plancache.lookup", root, i, false)
		p, verdict, err := tn.Srv.Cache().GetOrPrepare(ctx, key, func() (*aggview.Prepared, error) {
			id := tr.start("aggview.prepare", lookup, i, false)
			defer tr.end(id)
			return sys.PrepareContext(ctx, op.SQL)
		})
		tr.end(lookup)
		if err != nil {
			return err
		}
		if verdict == "miss" {
			tn.misses++
		}
		if verdict == "miss" && tn.misses%searchProbeEvery == 1 {
			// The search again, alone: PrepareContext ran it inside.
			q, err := sys.Parse(op.SQL)
			if err != nil {
				return err
			}
			if err := step("core.search", true, func() error {
				rws, err := sys.Rewriter().RewritingsContext(ctx, q)
				tn.rewritings += len(rws)
				tn.searches++
				return err
			}); err != nil {
				return err
			}
		}
		var snap *engine.Snapshot
		_ = step("engine.snapshot", false, func() error { snap = sys.DB.Snapshot(); return nil })
		var res *engine.Relation
		if err := step("aggview.exec", false, func() (err error) { res, err = sys.ExecPreparedOnContext(ctx, p, snap); return }); err != nil {
			return err
		}
		if err := step("server.wire.encode", false, func() error {
			attrs, rows := server.EncodeRelation(res)
			body, err := json.Marshal(server.QueryResponse{Attrs: attrs, Rows: rows, Used: p.Used, Cache: verdict})
			tn.wireBytes += len(body)
			return err
		}); err != nil {
			return err
		}
		tn.rowsReturned += res.Len()
		if warm && op.WantCache != "" && verdict != op.WantCache {
			return fmt.Errorf("cache verdict %q, want %q", verdict, op.WantCache)
		}
		if (len(p.Used) > 0) != op.WantView {
			return fmt.Errorf("used views %v, want view-backed=%v", p.Used, op.WantView)
		}
		return nil
	}

	var rows [][]value.Value
	if err := step("server.wire.decode", false, func() (err error) { rows, err = server.DecodeRows(op.Rows); return }); err != nil {
		return err
	}
	mut := maintain.Mutation{Table: op.Table}
	var n int
	var err error
	switch op.Kind {
	case OpInsert:
		mut.Inserts = rows
		err = step("aggview.insert", false, func() error { n = len(rows); return sys.InsertContext(ctx, op.Table, rows...) })
	case OpDelete:
		mut.Deletes = rows
		err = step("aggview.delete", false, func() (err error) { n, err = sys.DeleteContext(ctx, op.Table, op.Where); return })
	case OpUpdate:
		// The update adds 1 to Charge, the last column.
		mut.Deletes = rows
		for _, r := range rows {
			nr := append([]value.Value{}, r...)
			nr[len(nr)-1] = value.Int(nr[len(nr)-1].AsInt() + 1)
			mut.Inserts = append(mut.Inserts, nr)
		}
		err = step("aggview.update", false, func() (err error) { n, err = sys.UpdateContext(ctx, op.Table, op.Set, op.Where); return })
	}
	if err != nil {
		return err
	}
	if n != op.WantRows {
		return fmt.Errorf("%s touched %d rows, want %d", op.Name, n, op.WantRows)
	}
	if err := step("maintain.apply", true, func() error { return tn.shadow.ApplyContext(ctx, mut) }); err != nil {
		return fmt.Errorf("shadow maintainer: %w", err)
	}
	if op.Kind == OpInsert {
		_ = step("engine.apply", true, func() error { tn.scratch.Append(op.Table, rows...); return nil })
		rel, _ := sys.DB.Get(op.Table)
		_ = step("engine.coltable_build", true, func() error { engine.BuildColTable(rel); return nil })
	}
	return nil
}

// timedDoer times each pass through the handler tree.
type timedDoer struct {
	inner server.Doer
	us    []float64
}

func (d *timedDoer) Do(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := d.inner.Do(req)
	d.us = append(d.us, float64(time.Since(t0).Nanoseconds())/1e3)
	return resp, err
}

// replay sends ops through a node's handler tree and keeps the
// handler's time and the client's latency of each.
type replay struct {
	client          *server.Client
	handler         *timedDoer
	readMs, writeMs []float64
	hotMs           []float64
	elapsed         time.Duration
	failed          int
	failures        []string
}

func newReplay(node *Node) *replay {
	td := &timedDoer{inner: node.Client.HTTP}
	return &replay{client: &server.Client{Base: node.Client.Base, HTTP: td}, handler: td}
}

// run drives ops as a closed loop; cache verdicts are checked from
// index warmAfter on.
func (rp *replay) run(ctx context.Context, ops []Op, warmAfter int) {
	start := time.Now()
	for i, op := range ops {
		t0 := time.Now()
		err := do(ctx, rp.client, op, i >= warmAfter)
		lat := ms(time.Since(t0))
		if err != nil {
			rp.failed++
			if len(rp.failures) < 5 {
				rp.failures = append(rp.failures, fmt.Sprintf("replay op %d (%s): %v", i, op.Name, err))
			}
			continue
		}
		if op.Kind == OpQuery {
			rp.readMs = append(rp.readMs, lat)
		} else {
			rp.writeMs = append(rp.writeMs, lat)
		}
		if op.Hot {
			rp.hotMs = append(rp.hotMs, lat)
		}
	}
	rp.elapsed += time.Since(start)
}

// TraceResult is the traced run of one workload.
type TraceResult struct {
	Metrics           []metric
	Attempted, Failed int
	Failures          []string
}

// add folds one phase's counts into the result.
func (tr *TraceResult) add(attempted, failed int, failures []string) {
	tr.Attempted += attempted
	tr.Failed += failed
	tr.Failures = append(tr.Failures, failures...)
}

// Trace is the per-layer run, apart from the gated one: the workload's
// first TraceOps ops stepped through by the harness with a span around
// every call into a layer, then the same ops through the handler with
// spans off and on, then over loopback TCP against a child aggserve.
// Layers the workload never enters (the write path of a read-only
// workload) are timed by a short probe — two write_mix cycles after the
// workload's own ops — so every layer reports on every run; on those
// workloads the figure says what the layer costs, not what the
// workload spent there.
func (r *Runner) Trace(ctx context.Context, w, writeProbe *Workload, o options) (*TraceResult, error) {
	out := &TraceResult{}
	fail := func(format string, args ...any) { out.add(0, 1, []string{fmt.Sprintf(format, args...)}) }
	ops := make([]Op, w.TraceOps)
	hasWrites := false
	for i := range ops {
		ops[i] = w.Op(i)
		hasWrites = hasWrites || ops[i].Kind != OpQuery
	}
	var probeOps []Op
	if !hasWrites {
		for i := 0; i < 2*writeProbe.Cycle; i++ {
			probeOps = append(probeOps, writeProbe.Op(i))
		}
	}
	// Cache verdicts are due once the warm working set has been seen.
	warmAfter := min(w.Warm, w.TraceOps/2)

	calibs := []float64{canary(), canary(), canary()}

	// 1. The harness takes the handler's steps itself.
	tn, err := newTracedNode(ctx, r.Script)
	if err != nil {
		return nil, err
	}
	before := tn.Sys.Metrics.Snapshot()
	closeBefore := constraints.CloseCacheSnapshot()
	tracedStart := time.Now()
	for i, op := range ops {
		out.Attempted++
		if err := tn.traceOp(ctx, i, op, i >= warmAfter); err != nil {
			fail("traced op %d (%s): %v", i, op.Name, err)
		}
	}
	tracedElapsed := time.Since(tracedStart)
	after := tn.Sys.Metrics.Snapshot()
	closeAfter := constraints.CloseCacheSnapshot()
	main := tn.tr.totals()
	mainSpans := len(tn.tr.spans)
	wireBytes, rowsReturned, misses, rewritings, searches := tn.wireBytes, tn.rowsReturned, tn.misses, tn.rewritings, tn.searches
	for i, op := range probeOps {
		out.Attempted++
		if err := tn.traceOp(ctx, len(ops)+i, op, false); err != nil {
			fail("write-probe op %d (%s): %v", i, op.Name, err)
		}
	}
	withProbe := tn.tr.totals()
	probeAfter := tn.Sys.Metrics.Snapshot()
	gated := &Pass{}
	r.gate(ctx, tn.Node, w, gated)
	out.add(gated.Attempted, gated.Failed, gated.Failures)
	setup, heap := tn.Setup, tn.HeapMB-r.HeapBaseMB
	spans := tn.tr.spans
	tn.Close()

	// 2. The same ops through the handler, spans off (the gated
	// configuration) and on, on two fresh nodes in alternating chunks so
	// a slow second on the host hits both.
	plain, err := NewNode(ctx, r.Script, false)
	if err != nil {
		return nil, err
	}
	defer plain.Close()
	spanned, err := NewNode(ctx, r.Script, true)
	if err != nil {
		return nil, err
	}
	defer spanned.Close()
	off, on := newReplay(plain), newReplay(spanned)
	chunk := max(w.Cycle, 96/w.Cycle*w.Cycle)
	for lo := 0; lo < len(ops); lo += chunk {
		hi := min(lo+chunk, len(ops))
		off.run(ctx, ops[lo:hi], warmAfter-lo)
		on.run(ctx, ops[lo:hi], warmAfter-lo)
	}
	cache := plain.Srv.Cache().Stats()
	probe := newReplay(plain)
	probe.run(ctx, probeOps, len(probeOps))
	out.add(2*len(ops)+len(probeOps), 0, nil)
	for _, rp := range []*replay{off, on, probe} {
		out.add(0, rp.failed, rp.failures)
	}

	// admission.acquire alone, on the idle server.
	var acquireNs int64
	const acquires = 1000
	for i := 0; i < acquires; i++ {
		t0 := time.Now()
		_, release, err := plain.Srv.Admission().Acquire(ctx, "")
		acquireNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("bench: admission refused the only client: %w", err)
		}
		release()
	}

	// 3. The same ops over loopback TCP against a child aggserve.
	tcp, err := runTCP(ctx, r.Script, ops, o)
	if err != nil {
		return nil, err
	}
	out.add(tcp.attempted, tcp.failed, tcp.failures)

	calib := median(append(calibs, canary(), canary(), canary()))

	if err := writeSpans(o.Out, w.Name, o.Seed, spans); err != nil {
		return nil, err
	}

	n := len(ops)
	delta := func(a, b map[string]int64, name string) float64 { return float64(b[name] - a[name]) }
	// Write-path layers come from the workload's own spans when it has
	// writes, else from the probe's.
	writes, wBefore, wAfter := main, before, after
	if !hasWrites {
		writes, wBefore, wAfter = withProbe, after, probeAfter
	}
	writeMs := off.writeMs
	if !hasWrites {
		writeMs = probe.writeMs
	}
	handlerUs := mean(off.handler.us)
	accounted := 0.0
	for _, name := range handlerSteps {
		accounted += main.perOp(name, n)
	}
	// The plain node's cache was empty when the replay began.
	lookups := float64(cache.Hits + cache.Misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(cache.Hits) / lookups
	}
	closeLookups := float64(closeAfter.Hits-closeBefore.Hits) + float64(closeAfter.Misses-closeBefore.Misses)
	closeRatio := 0.0
	if closeLookups > 0 {
		closeRatio = float64(closeAfter.Hits-closeBefore.Hits) / closeLookups
	}
	scanRows := delta(before.Counters, after.Counters, "engine.scan.rows")
	batches := delta(wBefore.Volatile, wAfter.Volatile, "maintain.batch.apply")

	m := func(name, unit string, v float64, samples int) {
		out.Metrics = append(out.Metrics, metric{Name: name, Unit: unit, Value: v, Samples: samples})
	}
	m("sqlparser.parse_us", "us", main.perOp("sqlparser.parse", n), main.calls["sqlparser.parse"])
	m("sqlparser.script_mb_per_s", "MB/s", float64(setup.ScriptBytes)/1e6/setup.Parse.Seconds(), 1)
	m("aggview.plan_key_us", "us", main.perOp("aggview.plan_key", n), main.calls["aggview.plan_key"])
	m("aggview.prepare_us", "us", main.perOp("aggview.prepare", n), main.calls["aggview.prepare"])
	m("aggview.exec_us", "us", main.perOp("aggview.exec", n), main.calls["aggview.exec"])
	m("aggview.insert_us", "us", writes.perCall("aggview.insert"), writes.calls["aggview.insert"])
	m("aggview.delete_us", "us", writes.perCall("aggview.delete"), writes.calls["aggview.delete"])
	m("aggview.update_us", "us", writes.perCall("aggview.update"), writes.calls["aggview.update"])
	m("aggview.load_s", "s", setup.Load.Seconds(), 1)
	m("aggview.track_s", "s", setup.Track.Seconds(), 1)
	// One probed search stands for the searchProbeEvery misses around it.
	m("core.search_us", "us", main.perCall("core.search")*float64(misses)/float64(n), searches)
	m("core.rewritings_per_search", "count", float64(rewritings)/float64(max(searches, 1)), searches)
	m("constraints.close_cache_hit_ratio", "ratio", closeRatio, int(closeLookups))
	m("engine.snapshot_us", "us", main.perOp("engine.snapshot", n), main.calls["engine.snapshot"])
	m("engine.scan_rows_per_op", "count", scanRows/float64(n), n)
	m("engine.rows_scanned_per_row_returned", "ratio", scanRows/float64(max(rowsReturned, 1)), rowsReturned)
	m("engine.pool_morsels_per_op", "count", delta(before.Volatile, after.Volatile, "engine.pool.morsels")/float64(n), n)
	m("engine.coltable_build_us", "us", writes.perCall("engine.coltable_build"), writes.calls["engine.coltable_build"])
	m("engine.apply_us", "us", writes.perCall("engine.apply"), writes.calls["engine.apply"])
	m("engine.heap_mb_after_setup", "MB", heap, 1)
	m("maintain.apply_us", "us", writes.perCall("maintain.apply"), writes.calls["maintain.apply"])
	m("maintain.delta_rows_per_batch", "count", delta(wBefore.Volatile, wAfter.Volatile, "maintain.delta.rows")/max(batches, 1), int(batches))
	m("maintain.fallback_full", "count", delta(wBefore.Volatile, wAfter.Volatile, "maintain.fallback.full"), int(batches))
	m("server.handler_us", "us", handlerUs, len(off.handler.us))
	m("server.self_us", "us", handlerUs-accounted, len(off.handler.us))
	m("server.plancache.lookup_us", "us", main.perOp("server.plancache.lookup", n), main.calls["server.plancache.lookup"])
	m("server.plancache.hit_ratio", "ratio", hitRatio, int(lookups))
	m("server.plancache.evictions", "count", float64(cache.Evictions), int(lookups))
	m("server.plancache.invalidated", "count", float64(cache.Invalidated), int(lookups))
	m("server.admission.acquire_us", "us", float64(acquireNs)/1e3/acquires, acquires)
	m("server.wire.encode_us", "us", main.perOp("server.wire.encode", n), main.calls["server.wire.encode"])
	m("server.wire.bytes_per_op", "B", float64(wireBytes)/float64(n), n)
	m("server.read_p99_ms", "ms", quantile(off.readMs, 0.99), len(off.readMs))
	m("server.write_p99_ms", "ms", quantile(writeMs, 0.99), len(writeMs))
	m("obs.span_overhead_pct", "%", 100*(median(on.handler.us)/median(off.handler.us)-1), len(on.handler.us))
	m("aggserve.startup_s", "s", tcp.startup.Seconds(), 1)
	m("aggserve.tcp_p50_ms", "ms", median(tcp.hotMs), len(tcp.hotMs))
	m("aggserve.tcp_ops_per_s", "1/s", tcp.opsPerSec, tcp.attempted)
	m("aggserve.tcp_overhead_us", "us", 1e3*(median(tcp.hotMs)-median(off.hotMs)), len(tcp.hotMs))
	// Traced against untraced ops per second. The traced loop pays for
	// probes and span bookkeeping but skips the client and the HTTP
	// routing, so on cheap requests the figure is negative.
	m("bench.trace_overhead_pct", "%", 100*(tracedElapsed.Seconds()/off.elapsed.Seconds()-1), mainSpans)
	m("bench.calib_ms", "ms", calib, 6)
	return out, nil
}

// writeSpans writes the run's spans to <dir>/trace-<workload>.json.
func writeSpans(dir, workload string, seed int64, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing spans: %w", err)
	}
	return nil
}
