package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/faultinject"
	"aggview/internal/obs"
	"aggview/internal/value"
)

// servedSystem builds a system with a tracked aggregation view, so
// inserts through the server maintain the view and fire invalidation.
func servedSystem(t *testing.T) *aggview.System {
	ctx := context.Background()
	t.Helper()
	sys := aggview.New()
	sys.MustLoad(`
		CREATE TABLE Sales(region, amount, qty);
		CREATE VIEW Totals AS SELECT region, SUM(amount), COUNT(amount) FROM Sales GROUP BY region
	`)
	if err := sys.InsertContext(ctx, "Sales",
		[]aggview.Value{aggview.Str("n"), aggview.Int(10), aggview.Int(1)},
		[]aggview.Value{aggview.Str("n"), aggview.Int(20), aggview.Int(2)},
		[]aggview.Value{aggview.Str("s"), aggview.Int(5), aggview.Int(1)},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrackViewContext(ctx, "Totals"); err != nil {
		t.Fatal(err)
	}
	return sys
}

func testClient(t *testing.T, sys *aggview.System, cfg Config) (*Client, *Server) {
	t.Helper()
	srv := New(sys, cfg)
	t.Cleanup(srv.Close)
	return &Client{Base: "http://test", HTTP: &InProcessExec{S: srv}}, srv
}

// TestServerQueryRoundTrip pins the full wire path: the served answer
// is bag-equal to direct evaluation, and a repeated shape hits the plan
// cache.
func TestServerQueryRoundTrip(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{})
	ctx := context.Background()
	const sql = "SELECT region, SUM(amount) FROM Sales GROUP BY region"

	want, err := sys.QueryContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "miss" {
		t.Fatalf("first request cache=%q, want miss", resp.Cache)
	}
	got, err := resp.Relation()
	if err != nil {
		t.Fatal(err)
	}
	if !engine.ResultsEqualBag(want, got) {
		t.Fatalf("served answer differs from direct:\nwant %v\ngot %v", want, got)
	}

	// Same shape, different spelling: canonical key matches, cache hits,
	// same answer.
	resp2, err := c.Query(ctx, "SELECT region, SUM(amount) FROM Sales AS Sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cache != "hit" {
		t.Fatalf("second request cache=%q, want hit", resp2.Cache)
	}
	got2, _ := resp2.Relation()
	if !engine.ResultsEqualBag(want, got2) {
		t.Fatal("cache hit changed the answer")
	}
}

// TestServerStaleImpossible is the cache-transparency gate: after
// /insert mutates a base relation, every repeated query must reflect
// the new rows exactly — a stale cached answer is a hard failure. Two
// plan shapes exercise the two paths: a plan ranging over the tracked
// view survives in the cache (the view absorbed the delta inside the
// mutation's atomic batch, so the warm plan stays answer-correct),
// while a plan scanning the base table directly is evicted and
// replans.
func TestServerStaleImpossible(t *testing.T) {
	sys := servedSystem(t)
	c, srv := testClient(t, sys, Config{})
	ctx := context.Background()
	const viewSQL = "SELECT region, SUM(amount) FROM Sales GROUP BY region"
	const baseSQL = "SELECT region, SUM(qty) FROM Sales GROUP BY region"

	before, err := c.Query(ctx, viewSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Used) == 0 {
		t.Fatalf("query %q should range over the materialized view", viewSQL)
	}
	baseBefore, err := c.Query(ctx, baseSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseBefore.Used) != 0 {
		t.Fatalf("query %q should scan the base table (qty is not in the view)", baseSQL)
	}

	rows := EncodeRows([][]aggview.Value{{aggview.Str("n"), aggview.Int(100), aggview.Int(3)}})
	if _, err := c.Insert(ctx, "Sales", rows); err != nil {
		t.Fatal(err)
	}

	// The view-backed plan survives: the maintained materialization
	// already reflects the insert, so evicting it would only throw away
	// a warm, still-correct plan.
	after, err := c.Query(ctx, viewSQL)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cache != "hit" {
		t.Fatalf("post-insert view-backed request cache=%q, want hit (maintained view absorbed the delta)", after.Cache)
	}
	want, err := sys.QueryContext(ctx, viewSQL)
	if err != nil {
		t.Fatal(err)
	}
	gotRel, _ := after.Relation()
	if !engine.ResultsEqualBag(want, gotRel) {
		t.Fatalf("served answer is stale:\nwant %v\ngot %v", want, gotRel)
	}
	beforeRel, _ := before.Relation()
	if engine.ResultsEqualBag(beforeRel, gotRel) {
		t.Fatal("insert did not change the aggregate — test lost its teeth")
	}

	// The base-table plan must be evicted and replan.
	baseAfter, err := c.Query(ctx, baseSQL)
	if err != nil {
		t.Fatal(err)
	}
	if baseAfter.Cache != "miss" {
		t.Fatalf("post-insert base-table request cache=%q, want miss (plan must be invalidated)", baseAfter.Cache)
	}
	baseWant, err := sys.QueryContext(ctx, baseSQL)
	if err != nil {
		t.Fatal(err)
	}
	baseGot, _ := baseAfter.Relation()
	if !engine.ResultsEqualBag(baseWant, baseGot) {
		t.Fatalf("served base-table answer is stale:\nwant %v\ngot %v", baseWant, baseGot)
	}
	if srv.Cache().Stats().Invalidated == 0 {
		t.Fatal("no cached plan was invalidated by the insert")
	}
}

// TestServerDeleteUpdate pins the mutation endpoints end to end: rows
// removed and rewritten over the wire propagate into the maintained
// view, served answers stay bag-equal to direct evaluation, and the
// view-backed plan survives both mutations in the cache.
func TestServerDeleteUpdate(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{})
	ctx := context.Background()
	const sql = "SELECT region, SUM(amount) FROM Sales GROUP BY region"

	if _, err := c.Query(ctx, sql); err != nil {
		t.Fatal(err) // warm the cache
	}

	del, err := c.Delete(ctx, "Sales", "amount < 15 AND region = 'n'")
	if err != nil {
		t.Fatal(err)
	}
	if del.Deleted != 1 {
		t.Fatalf("deleted %d rows, want 1", del.Deleted)
	}
	upd, err := c.Update(ctx, "Sales", "amount = amount + 100", "region = 's'")
	if err != nil {
		t.Fatal(err)
	}
	if upd.Updated != 1 {
		t.Fatalf("updated %d rows, want 1", upd.Updated)
	}

	resp, err := c.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" {
		t.Fatalf("post-mutation view-backed request cache=%q, want hit", resp.Cache)
	}
	want, err := sys.QueryContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := resp.Relation()
	if !engine.ResultsEqualBag(want, got) {
		t.Fatalf("served answer diverged after delete+update:\nwant %v\ngot %v", want, got)
	}

	// Typed errors for malformed mutations.
	if _, err := c.Delete(ctx, "Nope", ""); err == nil {
		t.Fatal("delete from unknown table should fail")
	}
	if _, err := c.Update(ctx, "Sales", "nope = 1", ""); err == nil {
		t.Fatal("update of unknown column should fail")
	}
}

// TestServerDisconnectCancels pins the fault path the load harness
// leans on: a client that goes away mid-query unwinds the engine with
// a typed cancellation (504 over the wire), and the worker goroutine
// drains — no leak.
func TestServerDisconnectCancels(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{})

	runtime.GC()
	baseline := runtime.NumGoroutine()

	// The injector cancels the request context as the engine reaches its
	// first base-table scan: the client is gone mid-query.
	ctx, cancel := faultinject.New(faultinject.SiteStorage, 1).Arm(context.Background())
	defer cancel()
	_, err := c.Query(ctx, "SELECT region FROM Sales")
	var we *WireError
	if !errors.As(err, &we) || we.Kind != ErrKindCanceled {
		t.Fatalf("disconnected query returned %v, want typed %s", err, ErrKindCanceled)
	}
	if we.Status != http.StatusGatewayTimeout {
		t.Fatalf("status=%d, want 504", we.Status)
	}

	leaked := 0
	for i := 0; i < 100; i++ {
		runtime.GC()
		leaked = runtime.NumGoroutine() - baseline
		if leaked <= 0 {
			leaked = 0
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaked > 0 {
		t.Fatalf("%d goroutines leaked after disconnect", leaked)
	}
}

// TestServerKeyConflictIs409 pins how a write a declared key refuses
// leaves the server: /insert of a stored key, and /update moving a row
// onto one, answer 409 "conflict" and change nothing.
func TestServerKeyConflictIs409(t *testing.T) {
	ctx := context.Background()
	sys := aggview.New()
	sys.MustLoad("CREATE TABLE Items(id, name) KEY(id)")
	c, _ := testClient(t, sys, Config{})
	if _, err := c.Insert(ctx, "Items", [][]string{{"i:1", "s:a"}, {"i:2", "s:b"}}); err != nil {
		t.Fatal(err)
	}
	ver := sys.DB.Version("Items")
	_, insErr := c.Insert(ctx, "Items", [][]string{{"i:3", "s:c"}, {"i:1", "s:d"}})
	_, updErr := c.Update(ctx, "Items", "id = 1", "id = 2")
	for _, err := range []error{insErr, updErr} {
		var we *WireError
		if !errors.As(err, &we) || we.Kind != ErrKindConflict || we.Status != http.StatusConflict {
			t.Fatalf("write repeating a key returned %v, want typed %s with status 409", err, ErrKindConflict)
		}
	}
	if sys.DB.Version("Items") != ver {
		t.Fatal("a refused write changed Items")
	}
}

// TestServerMutationAbortTyped pins how the mutation endpoints classify
// a facade error: a client that goes away while the maintainer is
// staging a /delete gets the typed cancellation (504 "canceled", as a
// query would), not a 400, and the batch left nothing behind — the base
// table and the maintained view read exactly as before.
func TestServerMutationAbortTyped(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{})
	ctx := context.Background()
	state := func() (*engine.Relation, *engine.Relation) {
		base, err := sys.QueryContext(ctx, "SELECT region, amount, qty FROM Sales")
		if err != nil {
			t.Fatal(err)
		}
		view, ok := sys.DB.Get("Totals")
		if !ok {
			t.Fatal("Totals not materialized")
		}
		return base, view
	}
	baseBefore, viewBefore := state()

	// The injector cancels the request context at the first maintenance
	// observation: after the rows were matched, before anything commits.
	armed, cancel := faultinject.New(faultinject.SiteMaintain, 1).Arm(ctx)
	defer cancel()
	_, err := c.Delete(armed, "Sales", "region = 'n'")
	var we *WireError
	if !errors.As(err, &we) || we.Kind != ErrKindCanceled || we.Status != http.StatusGatewayTimeout {
		t.Fatalf("canceled delete returned %v, want typed %s with status 504", err, ErrKindCanceled)
	}
	baseAfter, viewAfter := state()
	if !engine.ResultsEqualBag(baseBefore, baseAfter) || !engine.ResultsEqualBag(viewBefore, viewAfter) {
		t.Fatal("aborted delete changed the database")
	}

	// A malformed statement is still the client's fault.
	_, err = c.Delete(ctx, "Sales", "nope = 1")
	if !errors.As(err, &we) || we.Kind != ErrKindBadRequest || we.Status != http.StatusBadRequest {
		t.Fatalf("unknown column returned %v, want typed %s with status 400", err, ErrKindBadRequest)
	}

	// The same delete, uninterrupted, goes through.
	del, err := c.Delete(ctx, "Sales", "region = 'n'")
	if err != nil || del.Deleted != 2 {
		t.Fatalf("retry deleted %+v, %v; want 2 rows", del, err)
	}
}

// TestServerStorageFaultTyped pins the other fault path: an injected
// storage failure surfaces as a complete typed JSON error body (502,
// kind "storage"), never a partial result, and clearing the fault
// restores service.
func TestServerStorageFaultTyped(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{})
	ctx := context.Background()
	const sql = "SELECT region, qty FROM Sales"

	if err := c.SetFaults(ctx, 1); err != nil {
		t.Fatal(err)
	}
	_, err := c.Query(ctx, sql)
	var we *WireError
	if !errors.As(err, &we) || we.Kind != ErrKindStorage {
		t.Fatalf("faulted query returned %v, want typed %s", err, ErrKindStorage)
	}
	if we.Status != http.StatusBadGateway {
		t.Fatalf("status=%d, want 502", we.Status)
	}

	if err := c.SetFaults(ctx, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(ctx, sql)
	if err != nil {
		t.Fatalf("after clearing faults: %v", err)
	}
	want, _ := sys.QueryContext(ctx, sql)
	got, _ := resp.Relation()
	if !engine.ResultsEqualBag(want, got) {
		t.Fatal("post-fault answer differs from direct")
	}
}

// TestServerErrorBodiesComplete drives the raw handler and checks that
// every error response is one complete JSON document of the wire error
// shape — the "no partial bodies" invariant at the HTTP layer.
func TestServerErrorBodiesComplete(t *testing.T) {
	sys := servedSystem(t)
	srv := New(sys, Config{})
	defer srv.Close()
	exec := &InProcessExec{S: srv}

	cases := []struct {
		name     string
		body     string
		wantCode int
		wantKind string
	}{
		{"malformed json", `{"sql": `, http.StatusBadRequest, ErrKindBadRequest},
		{"unknown field", `{"sql": "SELECT 1", "nope": true}`, http.StatusBadRequest, ErrKindBadRequest},
		{"parse error", `{"sql": "SELEKT x FROM y"}`, http.StatusBadRequest, ErrKindBadQuery},
		{"unknown table", `{"sql": "SELECT z FROM Nowhere"}`, http.StatusBadRequest, ErrKindBadQuery},
		{"int sum overflow", `{"sql": "SELECT SUM(qty * 3074457345618258602) FROM Sales"}`, http.StatusUnprocessableEntity, ErrKindOverflow},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodPost, "http://test/query", strings.NewReader(tc.body))
		resp, err := exec.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status=%d, want %d", tc.name, resp.StatusCode, tc.wantCode)
		}
		var eb ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == nil {
			t.Fatalf("%s: error body is not a complete ErrorBody document: %v", tc.name, err)
		}
		if eb.Error.Kind != tc.wantKind {
			t.Errorf("%s: kind=%q, want %q", tc.name, eb.Error.Kind, tc.wantKind)
		}
	}
}

// TestServerShedOverWire pins the 429 mapping: a rate-limited tenant
// receives kind "shed" with a Retry-After hint while other tenants are
// unaffected.
func TestServerShedOverWire(t *testing.T) {
	sys := servedSystem(t)
	cfg := Config{Tenants: map[string]TenantConfig{
		"limited": {Rate: 1, Burst: 1, MaxWait: 5 * time.Millisecond},
	}}
	srv := New(sys, cfg)
	defer srv.Close()
	exec := &InProcessExec{S: srv}
	limited := &Client{Base: "http://test", HTTP: exec, Tenant: "limited"}
	free := &Client{Base: "http://test", HTTP: exec, Tenant: "free"}
	ctx := context.Background()
	const sql = "SELECT region FROM Sales"

	if _, err := limited.Query(ctx, sql); err != nil {
		t.Fatal(err)
	}
	_, err := limited.Query(ctx, sql)
	var we *WireError
	if !errors.As(err, &we) || we.Kind != ErrKindShed {
		t.Fatalf("burst overflow returned %v, want typed shed", err)
	}
	if we.Status != http.StatusTooManyRequests {
		t.Fatalf("status=%d, want 429", we.Status)
	}
	if we.RetryAfterMs <= 0 {
		t.Fatal("shed carries no retry hint")
	}
	if _, err := free.Query(ctx, sql); err != nil {
		t.Fatalf("unlimited tenant was starved: %v", err)
	}
}

// TestServerConcurrentMixedLoad runs queries, inserts and repeated
// shapes from many goroutines (meaningful under -race): every answer
// stays bag-equal to a direct evaluation taken under the same lock
// discipline, and the cache keeps hitting.
func TestServerConcurrentMixedLoad(t *testing.T) {
	sys := servedSystem(t)
	m := obs.NewMetrics()
	c, srv := testClient(t, sys, Config{Metrics: m})
	ctx := context.Background()
	sqls := []string{
		"SELECT region, SUM(amount) FROM Sales GROUP BY region",
		"SELECT region, qty FROM Sales",
		"SELECT SUM(qty) FROM Sales",
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g == 0 && i%5 == 4 {
					rows := EncodeRows([][]aggview.Value{{aggview.Str("w"), aggview.Int(int64(i)), aggview.Int(1)}})
					if _, err := c.Insert(ctx, "Sales", rows); err != nil {
						errs <- err
						return
					}
					continue
				}
				if _, err := c.Query(ctx, sqls[(g+i)%len(sqls)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := srv.Cache().Stats()
	if stats.Hits == 0 {
		t.Fatal("no cache hits across repeated shapes")
	}
	if stats.Invalidated == 0 {
		t.Fatal("inserts never invalidated a cached plan")
	}

	// Final consistency: each shape's served answer equals direct.
	for _, sql := range sqls {
		resp, err := c.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := resp.Relation()
		if !engine.ResultsEqualBag(want, got) {
			t.Fatalf("%s: served answer differs from direct after mixed load", sql)
		}
	}
}

// TestServerMetricsEndpoint sanity-checks the observability surface.
func TestServerMetricsEndpoint(t *testing.T) {
	sys := servedSystem(t)
	srv := New(sys, Config{})
	defer srv.Close()
	exec := &InProcessExec{S: srv}
	c := &Client{Base: "http://test", HTTP: exec}
	if _, err := c.Query(context.Background(), "SELECT region FROM Sales"); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, "http://test/metrics?format=json", nil)
	resp, err := exec.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status=%d", resp.StatusCode)
	}
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"metrics", "plan_cache", "admission"} {
		if _, ok := body[key]; !ok {
			t.Errorf("metrics body lacks %q", key)
		}
	}
	// The default rendering is text: sorted lines, no JSON.
	text, err := c.MetricsText(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "volatile server.requests 1\n") {
		t.Fatalf("text metrics missing request counter:\n%s", text)
	}
	if strings.Contains(text, "gauge ") {
		t.Fatalf("gauges leaked into plain scrape:\n%s", text)
	}
	if _, err := c.Gauge(context.Background(), "server.goroutines"); err != nil {
		t.Fatalf("goroutine gauge scrape: %v", err)
	}

	// Writes say which storage path they took and how many groups the
	// maintained view patched.
	if _, err := c.Insert(context.Background(), "Sales", [][]string{{"s:w", "i:1", "i:1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(context.Background(), "Sales", "region = 'w'"); err != nil {
		t.Fatal(err)
	}
	if text, err = c.MetricsText(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"volatile engine.store.append.", "volatile engine.store.compact.bytes ", "volatile maintain.groups.touched 2\n",
		"volatile engine.store.chunks.copied ", "volatile engine.store.chunks.shared ",
		// The DELETE's match consulted Sales' one chunk and had to read it.
		"counter engine.scan.chunks ", "counter engine.scan.chunks_skipped 0\n",
		// Which table numbered group and join keys: no join has run.
		"counter engine.agg.morsels_direct ", "counter engine.agg.morsels_hashed ",
		"counter engine.join.keys_direct 0\n", "counter engine.join.keys_hashed 0\n", "counter engine.join.lookups 0\n",
		`maintain.view{name="Totals",mode="incremental",reason=""} 1` + "\n",
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("text metrics missing write-path line %q:\n%s", line, text)
		}
	}
}

// TestServerRejectsTrailingBytes pins that a request body is one JSON
// value and nothing else on every route that reads one: a second value or
// garbage after the first is bad_request and nothing is executed, while
// trailing whitespace stays acceptable.
func TestServerRejectsTrailingBytes(t *testing.T) {
	sys := servedSystem(t)
	srv := New(sys, Config{})
	defer srv.Close()
	exec := &InProcessExec{S: srv}
	rowsBefore, _ := sys.DB.NumRows("Sales")

	routes := []struct{ path, body string }{
		{"/query", `{"sql":"SELECT region FROM Sales"}`},
		{"/insert", `{"table":"Sales","rows":[["s:w","i:1","i:1"]]}`},
		{"/delete", `{"table":"Sales","where":"qty = 1"}`},
		{"/update", `{"table":"Sales","set":"qty = 9","where":"qty = 1"}`},
		{"/admin/faults", `{"k":1}`},
	}
	trailers := []string{` {"sql":"x"}`, `garbage`, ` {"sql":"x"} garbage`, `,`, `]`, "\n1"}
	for _, rt := range routes {
		for _, tr := range trailers {
			req, _ := http.NewRequest(http.MethodPost, "http://test"+rt.path, strings.NewReader(rt.body+tr))
			resp, err := exec.Do(req)
			if err != nil {
				t.Fatalf("%s + %q: %v", rt.path, tr, err)
			}
			var eb ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == nil {
				t.Fatalf("%s + %q: status %d, not an ErrorBody: %v", rt.path, tr, resp.StatusCode, err)
			}
			if resp.StatusCode != http.StatusBadRequest || eb.Error.Kind != ErrKindBadRequest {
				t.Errorf("%s + %q: status %d kind %q, want 400 %s", rt.path, tr, resp.StatusCode, eb.Error.Kind, ErrKindBadRequest)
			}
		}
	}
	if n, _ := sys.DB.NumRows("Sales"); n != rowsBefore {
		t.Errorf("a rejected body was executed: Sales went from %d to %d rows", rowsBefore, n)
	}
	if srv.faults != nil {
		t.Error("a rejected /admin/faults body installed a fault store")
	}
	if got := srv.metrics.Volatile("server.requests").Load(); got != 0 {
		t.Errorf("%d rejected /query bodies were counted as requests", got)
	}
	for _, rt := range routes {
		req, _ := http.NewRequest(http.MethodPost, "http://test"+rt.path, strings.NewReader(rt.body+" \n\t "))
		if resp, err := exec.Do(req); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d err %v, want 200", rt.path, resp.StatusCode, err)
		}
	}
}

// oversizeDoer answers every request with a body of the given length
// (zeros, never materialised), announced in Content-Length or not.
type oversizeDoer struct {
	n        int64
	announce bool
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) { clear(p); return len(p), nil }

func (d oversizeDoer) Do(req *http.Request) (*http.Response, error) {
	resp := &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(io.LimitReader(zeroReader{}, d.n)), ContentLength: -1}
	if d.announce {
		resp.ContentLength = d.n
	}
	return resp, nil
}

// TestClientResponseTooLarge pins that a reply over the client's read
// limit is ErrResponseTooLarge from every call that reads a body — not a
// silently truncated body surfacing as a JSON syntax error.
func TestClientResponseTooLarge(t *testing.T) {
	ctx := context.Background()
	c := &Client{Base: "http://big", HTTP: oversizeDoer{n: maxResponseBytes + 1, announce: true}}
	if _, err := c.Query(ctx, "SELECT 1"); !errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("Query: err = %v, want ErrResponseTooLarge", err)
	}
	if _, err := c.Script(ctx); !errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("Script: err = %v, want ErrResponseTooLarge", err)
	}
	if _, err := c.MetricsText(ctx, false); !errors.Is(err, ErrResponseTooLarge) {
		t.Errorf("MetricsText: err = %v, want ErrResponseTooLarge", err)
	}
	// Unannounced lengths are counted as read; a small limit keeps the
	// test from holding maxResponseBytes.
	for _, tc := range []struct {
		n        int64
		announce bool
		tooLarge bool
	}{{100, false, false}, {101, false, true}, {100, true, false}, {101, true, true}, {0, false, false}, {0, true, false}} {
		resp, _ := oversizeDoer{n: tc.n, announce: tc.announce}.Do(nil)
		data, err := readBody(resp, 100)
		if tc.tooLarge != errors.Is(err, ErrResponseTooLarge) || (!tc.tooLarge && (err != nil || int64(len(data)) != tc.n)) {
			t.Errorf("readBody(%d bytes, announced=%v, limit 100): %d bytes, err %v", tc.n, tc.announce, len(data), err)
		}
	}
	// A body shorter than announced is an error, not a short read.
	resp, _ := oversizeDoer{n: 10, announce: true}.Do(nil)
	resp.ContentLength = 20
	if _, err := readBody(resp, 100); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestQueryReplyCap: a result whose body would pass the reply cap — the
// limit the client reads to, lowered here — is answered with a complete
// typed error, response_too_large with status 413, never with a body cut
// short, and costs the server nothing lasting: the next request on it
// succeeds, as does the same query once the cap admits it.
func TestQueryReplyCap(t *testing.T) {
	defer func(old int64) { maxResponseBytes = old }(maxResponseBytes)
	maxResponseBytes = 4096
	sys := servedSystem(t)
	for i := 0; i < 40; i++ {
		if err := sys.InsertContext(context.Background(), "Sales", []aggview.Value{aggview.Str("w"), aggview.Int(int64(i)), aggview.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	c, srv := testClient(t, sys, Config{})
	ctx := context.Background()
	const cross = "SELECT a.region, a.amount, b.amount FROM Sales AS a, Sales AS b" // 43 x 43 rows

	_, err := c.Query(ctx, cross)
	var we *WireError
	if !errors.As(err, &we) || we.Kind != ErrKindTooLarge || we.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("cross join under a %d-byte cap: err = %v, want a %s error with status 413", maxResponseBytes, err, ErrKindTooLarge)
	}
	// The raw reply is one JSON value: the error body and nothing else.
	req, _ := http.NewRequest(http.MethodPost, "http://test/query", strings.NewReader(`{"sql":"`+cross+`"}`))
	resp, _ := (&InProcessExec{S: srv}).Do(req)
	raw, _ := io.ReadAll(resp.Body)
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == nil || eb.Error.Kind != ErrKindTooLarge || int64(len(raw)) > maxResponseBytes {
		t.Fatalf("raw reply (%d bytes, status %d) is not one typed error body: %v\n%.200s", len(raw), resp.StatusCode, err, raw)
	}
	if n := srv.metrics.Volatile("server.errors.too_large").Load(); n != 2 {
		t.Errorf("server.errors.too_large = %d, want 2", n)
	}

	if resp, err := c.Query(ctx, "SELECT region, SUM(amount) FROM Sales GROUP BY region"); err != nil || len(resp.Rows) != 3 {
		t.Fatalf("the request after a refused reply: %d rows, err %v", len(resp.Rows), err)
	}
	maxResponseBytes = 64 << 20
	if resp, err := c.Query(ctx, cross); err != nil || len(resp.Rows) != 43*43 || resp.Cache != "hit" {
		t.Fatalf("the same query under the usual cap: %d rows, cache %q, err %v", len(resp.Rows), resp.Cache, err)
	}
}

// TestServerConstantKindsKeepTheirPlans pins cache transparency across a
// constant's kind: SUM(amount * 1) over an int column is INT and
// SUM(amount * 1.0) is FLOAT, so the two must key apart — the plan the
// float query cached must not answer the int one.
func TestServerConstantKindsKeepTheirPlans(t *testing.T) {
	sys := servedSystem(t)
	c, _ := testClient(t, sys, Config{})
	ctx := context.Background()
	for _, q := range []struct {
		sql  string
		kind value.Kind
	}{
		{"SELECT region, SUM(amount * 1.0) FROM Sales GROUP BY region", value.KindFloat},
		{"SELECT region, SUM(amount * 1) FROM Sales GROUP BY region", value.KindInt},
	} {
		resp, err := c.Query(ctx, q.sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resp.Relation()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != "miss" {
			t.Errorf("%s: cache %q, want miss", q.sql, resp.Cache)
		}
		for _, tup := range got.Tuples {
			if k := tup[1].Kind(); k != q.kind {
				t.Errorf("%s: SUM is %s, want %s", q.sql, k, q.kind)
			}
		}
	}
}

// TestQueryOverDeclaredEmptyTable pins that /query over a table declared
// and never written answers an empty result, alone or joined, not an
// error.
func TestQueryOverDeclaredEmptyTable(t *testing.T) {
	ctx := context.Background()
	sys := aggview.New()
	sys.MustLoad(`
		CREATE TABLE T(A, B);
		CREATE TABLE U(C, D);
		CREATE TABLE W(E, F);
	`)
	if err := sys.InsertContext(ctx, "W", []aggview.Value{aggview.Int(1), aggview.Int(2)}); err != nil {
		t.Fatal(err)
	}
	c, _ := testClient(t, sys, Config{})
	for _, sql := range []string{
		"SELECT A, SUM(B) FROM T GROUP BY A",
		"SELECT E, D FROM W, U WHERE E = C",
	} {
		resp, err := c.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got, err := resp.Relation()
		if err != nil || got.Len() != 0 {
			t.Fatalf("%s: %v rows (err %v), want none", sql, got, err)
		}
	}
}

// TestServerWritesAreBounded pins that a write runs under its tenant's
// envelope as a read does: past a 1 ns deadline, /insert, /delete and
// /update answer kind canceled and change nothing the /script dump
// shows; under a one-minute deadline each goes through.
func TestServerWritesAreBounded(t *testing.T) {
	ctx := context.Background()
	writes := func(c *Client) []error {
		_, ierr := c.Insert(ctx, "Sales", [][]string{{"s:w", "i:7", "i:1"}})
		_, derr := c.Delete(ctx, "Sales", "region = 'n'")
		_, uerr := c.Update(ctx, "Sales", "amount = amount + 1", "region = 's'")
		return []error{ierr, derr, uerr}
	}
	names := []string{"/insert", "/delete", "/update"}

	c, _ := testClient(t, servedSystem(t), Config{DefaultTenant: TenantConfig{Deadline: time.Nanosecond}})
	before, err := c.Script(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range writes(c) {
		var we *WireError
		if !errors.As(err, &we) || we.Kind != ErrKindCanceled {
			t.Fatalf("%s past a 1ns deadline returned %v, want kind %s", names[i], err, ErrKindCanceled)
		}
	}
	if after, err := c.Script(ctx); err != nil || after != before {
		t.Fatalf("writes past their deadline changed the state (%v):\nbefore:\n%s\nafter:\n%s", err, before, after)
	}

	c, _ = testClient(t, servedSystem(t), Config{DefaultTenant: TenantConfig{Deadline: time.Minute}})
	for i, err := range writes(c) {
		if err != nil {
			t.Fatalf("%s under a one-minute deadline: %v", names[i], err)
		}
	}
}
