package server

import (
	"context"
	"strings"
	"testing"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/oracle"
)

// TestMetricsTextDeterministic pins satellite 2: two scrapes of an idle
// server produce byte-identical text, because every line is monotone
// state emitted in sorted order and the unstable process gauges are
// opt-in.
func TestMetricsTextDeterministic(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{})
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT region, SUM(amount) FROM Sales GROUP BY region",
		"SELECT COUNT(amount) FROM Sales",
	} {
		if _, err := c.Query(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}

	a, err := c.MetricsText(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.MetricsText(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("idle /metrics scrapes differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if strings.Contains(a, "gauge ") {
		t.Fatalf("plain scrape leaked gauges:\n%s", a)
	}
	// Wall-clock durations have one histogram type, the latency one: no
	// power-of-two section repeats the per-tenant request latencies.
	if strings.Contains(a, "volatile_hist ") || strings.Contains(a, "server.latency_ns") {
		t.Fatalf("/metrics text carries a second request-latency histogram:\n%s", a)
	}
	for _, want := range []string{
		"volatile server.requests 2\n",
		"volatile server.tenant.default.requests 2\n",
		"volatile server.tenant.default.ok 2\n",
		"latency server.latency.default count=2",
		"latency_bucket server.latency.default le=1000 ",
		"latency_bucket server.latency.default le=+inf 2\n",
		"plan_cache size 2\n",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("/metrics text missing %q:\n%s", want, a)
		}
	}

	// The gauge variant carries the process gauges the leak probe reads.
	if _, err := c.Gauge(ctx, "server.goroutines"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Gauge(ctx, "server.heap_alloc_bytes"); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecorderEndpoint drives queries through the wire and checks
// the strict-decoded /debug/flightrec body: every request leaves one
// span with the facade stages, a cache verdict, and an outcome.
func TestFlightRecorderEndpoint(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{FlightRecorder: 8})
	ctx := context.Background()
	const sql = "SELECT region, SUM(amount) FROM Sales GROUP BY region"
	for i := 0; i < 3; i++ {
		if _, err := c.Query(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := c.FlightRec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Capacity != 8 {
		t.Fatalf("capacity = %d, want 8", snap.Capacity)
	}
	if snap.Appended != 3 || snap.Dropped != 0 || len(snap.Spans) != 3 {
		t.Fatalf("appended=%d dropped=%d spans=%d, want 3/0/3", snap.Appended, snap.Dropped, len(snap.Spans))
	}
	wantCache := []string{"miss", "hit", "hit"}
	for i, sp := range snap.Spans {
		if sp.SQL != sql || sp.Outcome != "ok" || sp.Error != "" {
			t.Fatalf("span %d: sql=%q outcome=%q error=%q", i, sp.SQL, sp.Outcome, sp.Error)
		}
		if sp.Cache != wantCache[i] {
			t.Errorf("span %d cache = %q, want %q", i, sp.Cache, wantCache[i])
		}
		names := make([]string, len(sp.Stages))
		for j, st := range sp.Stages {
			names[j] = st.Name
		}
		joined := strings.Join(names, ",")
		if !strings.Contains(joined, "facade.execute") || !strings.Contains(joined, "engine.exec") {
			t.Errorf("span %d stages = %v, want facade.execute and engine.exec", i, names)
		}
		// The cache miss plans (parse + search); hits skip both.
		hasSearch := strings.Contains(joined, "facade.search")
		if hasSearch != (sp.Cache == "miss") {
			t.Errorf("span %d (cache=%s) facade.search present=%v", i, sp.Cache, hasSearch)
		}
	}
}

// TestSlowQueryLogRoundTrip pins the repro contract: with a 1ns
// threshold every query is slow, and the captured script replayed
// offline through the oracle reproduces exactly the answer the server
// returned.
func TestSlowQueryLogRoundTrip(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{
		DefaultTenant: TenantConfig{SlowQueryNs: 1},
		SlowLogSize:   4,
	})
	ctx := context.Background()
	const sql = "SELECT region, SUM(amount), COUNT(amount) FROM Sales GROUP BY region"
	if _, err := c.Query(ctx, sql); err != nil {
		t.Fatal(err)
	}

	slow, err := c.SlowLog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Total != 1 || len(slow.Entries) != 1 {
		t.Fatalf("slowlog total=%d entries=%d, want 1/1", slow.Total, len(slow.Entries))
	}
	e := slow.Entries[0]
	if e.SQL != sql || e.ThresholdNs != 1 || e.ElapsedNs < 1 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Span == nil || e.Span.Outcome != "ok" {
		t.Fatalf("entry span = %+v, want completed ok span", e.Span)
	}

	// Replay the repro offline: parse the script back into an oracle
	// case, compile it into a fresh system, run its one SELECT step, and
	// compare bags against the wire-encoded answer the server stored.
	cs, err := oracle.Replay(e.Script)
	if err != nil {
		t.Fatalf("replay %q: %v", e.Script, err)
	}
	if len(cs.Steps) != 1 || cs.Steps[0].Kind != oracle.StepQuery {
		t.Fatalf("repro replays into %d steps, want the setup and one SELECT:\n%s", len(cs.Steps), e.Script)
	}
	fresh, err := cs.CompileContext(context.Background(), aggview.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.QueryContext(ctx, cs.Steps[0].Query.SQL())
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeRelation(e.Attrs, e.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.ResultsEqualBag(want, got) {
		t.Fatalf("replayed answer differs from recorded:\nwant %v\ngot %v", want, got)
	}
}

// TestSlowLogRetention checks capacity trimming and the total counter.
func TestSlowLogRetention(t *testing.T) {
	l := NewSlowLog(2)
	for i := 0; i < 5; i++ {
		l.Add(SlowEntry{SQL: strings.Repeat("x", i+1)})
	}
	total, entries := l.Snapshot()
	if total != 5 || len(entries) != 2 {
		t.Fatalf("total=%d entries=%d, want 5/2", total, len(entries))
	}
	if entries[0].SQL != "xxxx" || entries[1].SQL != "xxxxx" {
		t.Fatalf("retained wrong entries: %+v", entries)
	}
	var nilLog *SlowLog
	nilLog.Add(SlowEntry{})
	if nilLog.Enabled() {
		t.Fatal("nil SlowLog reports enabled")
	}
}

// TestTelemetryDisabled pins the opt-out: with the recorder and slow
// log both disabled, queries work, no spans are retained, and the
// debug endpoints return empty bodies rather than errors.
func TestTelemetryDisabled(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{FlightRecorder: -1, SlowLogSize: -1})
	ctx := context.Background()
	if _, err := c.Query(ctx, "SELECT region FROM Sales"); err != nil {
		t.Fatal(err)
	}
	snap, err := c.FlightRec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Capacity != 0 || snap.Appended != 0 || len(snap.Spans) != 0 {
		t.Fatalf("disabled recorder returned %+v", snap)
	}
	slow, err := c.SlowLog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Total != 0 || len(slow.Entries) != 0 {
		t.Fatalf("disabled slowlog returned %+v", slow)
	}
}

// TestErrKindMirrorsWire checks the span outcome classifier against the
// HTTP taxonomy for the cases a handler can actually produce.
func TestErrKindMirrorsWire(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{FlightRecorder: 8})
	ctx := context.Background()
	if _, err := c.Query(ctx, "SELECT nope FROM Sales"); err == nil {
		t.Fatal("bad query succeeded")
	}
	snap, err := c.FlightRec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(snap.Spans))
	}
	sp := snap.Spans[0]
	if sp.Outcome != ErrKindBadQuery || sp.Error == "" {
		t.Fatalf("span outcome=%q error=%q, want %s", sp.Outcome, sp.Error, ErrKindBadQuery)
	}
	if sp.DurationNs <= 0 {
		t.Fatalf("span duration = %d", sp.DurationNs)
	}
}
