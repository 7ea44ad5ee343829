// Loadrunner soaks the multi-tenant serving facade with a seeded
// concurrent workload and differentially checks every served answer.
// From one seed it generates a random instance (internal/oracle) plus a
// pool of query shapes over its schema, then drives N concurrent
// sessions through the full wire path in rounds: within a round the
// database is frozen and every 200 answer must be bag-equal to direct
// evaluation of the same query on a local mirror system; at round
// barriers the harness mutates a base table on both the server and the
// mirror (exercising plan-cache invalidation), and designated rounds
// run under injected storage faults (answers must then be exact or a
// clean typed error — never a partial body). A fraction of requests is
// deliberately canceled mid-flight to exercise the disconnect path.
//
// By default the server runs in-process (no TCP), which also enables a
// goroutine-leak check after the soak drains. With -addr the harness
// targets a running aggserve instead — start it from the script
// -emit-script writes, with the same -seed:
//
//	go run ./cmd/loadrunner -seed 7 -emit-script /tmp/db.sql
//	go run ./cmd/aggserve -script /tmp/db.sql -addr 127.0.0.1:0 -addr-file /tmp/addr &
//	go run ./cmd/loadrunner -seed 7 -addr "http://$(cat /tmp/addr)" -n 100
//
// With -telemetry the harness then scrapes the server's telemetry
// surfaces and replays a sample of slow-query repros offline. -json
// writes one report.Report of reproRow per run: the soak's and the
// telemetry pass's tallies as counts, the replayed repros as rows.
//
// The verdict fails, and the exit status is 1, on any answer mismatch,
// untyped failure, leaked goroutine, (for warm soaks) an all-miss plan
// cache, or with -telemetry a repro that does not reproduce its
// recorded answer, a slow threshold that captured nothing, or missing
// per-tenant latency histograms. -sessions, -rounds or -tenants below 1
// is a usage error, exit status 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"aggview"
	"aggview/internal/engine"
	"aggview/internal/oracle"
	"aggview/internal/report"
	"aggview/internal/server"
)

func main() {
	seed := flag.Int64("seed", 1, "workload seed (same seed, same workload)")
	sessions := flag.Int("sessions", 8, "concurrent client sessions")
	rounds := flag.Int("rounds", 6, "frozen-state rounds (mutations apply at round barriers)")
	n := flag.Int("n", 1200, "total query requests (split across sessions and rounds)")
	poolSize := flag.Int("queries", 12, "query shapes in the pool")
	addr := flag.String("addr", "", "target server base URL (empty: in-process server)")
	emit := flag.String("emit-script", "", "write the workload's SQL script for aggserve and exit")
	mutate := flag.Bool("mutate", true, "insert rows at round barriers (server and mirror)")
	faults := flag.Bool("faults", true, "run every third round under injected storage faults")
	cancelFrac := flag.Float64("cancel", 0.05, "fraction of requests deliberately canceled mid-flight")
	rate := flag.Float64("rate", 0, "in-process default tenant admission rate in requests/s (0: unlimited)")
	tenants := flag.Int("tenants", 3, "distinct tenant names to spread sessions across")
	jsonOut := flag.String("json", "", "write the run's report to this file")
	slow := flag.Duration("slow", 0, "in-process slow-query threshold (0: no slow-query capture); external servers configure theirs via aggserve -slow")
	telemetry := flag.Bool("telemetry", false, "after the soak, scrape /metrics, /debug/flightrec and /debug/slowlog and replay slow-query repros offline; their counts and the repros join the -json report")
	scrapeGauge := flag.String("scrape-gauge", "", "scrape one process gauge (e.g. server.goroutines) from -addr's /metrics, print its value, and exit — the external leak probe's primitive")
	timeout := flag.Duration("timeout", 5*time.Minute, "hard deadline for the whole soak")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	if *scrapeGauge != "" {
		if *addr == "" {
			fmt.Fprintln(os.Stderr, "loadrunner: -scrape-gauge requires -addr")
			os.Exit(2)
		}
		c := &server.Client{Base: *addr}
		v, err := c.Gauge(ctx, *scrapeGauge)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadrunner:", err)
			os.Exit(1)
		}
		fmt.Println(v)
		return
	}

	if err := run(ctx, config{
		seed: *seed, sessions: *sessions, rounds: *rounds, n: *n,
		poolSize: *poolSize, addr: *addr, emit: *emit, mutate: *mutate,
		faults: *faults, cancelFrac: *cancelFrac, rate: *rate,
		tenants: *tenants, jsonOut: *jsonOut,
		slow: *slow, telemetry: *telemetry,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "loadrunner:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a configuration run refuses before soaking.
var errUsage = errors.New("usage")

// loadTool names the load report's writer.
const loadTool = "loadrunner"

type config struct {
	seed                int64
	sessions, rounds, n int
	poolSize            int
	addr, emit          string
	mutate, faults      bool
	cancelFrac, rate    float64
	tenants             int
	jsonOut             string
	slow                time.Duration
	telemetry           bool
}

// tally collects the soak's counters; latencies in nanoseconds.
type tally struct {
	mu            sync.Mutex
	requests      int64
	ok            int64
	mismatches    int64
	shed          int64
	typedErrors   int64
	untypedErrors int64
	clientCancels int64
	cacheHits     int64
	cacheMisses   int64
	latencies     []int64
	samples       []string // first few mismatch details
}

func run(ctx context.Context, cfg config) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := oracle.GenerateWorkload(rng, oracle.GenOptions{}, cfg.poolSize)

	if cfg.emit != "" {
		if err := os.WriteFile(cfg.emit, []byte(w.Case.Script()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadrunner: wrote workload script to %s\n", cfg.emit)
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"sessions", cfg.sessions}, {"rounds", cfg.rounds}, {"tenants", cfg.tenants}} {
		if f.v < 1 {
			return fmt.Errorf("%w: -%s must be at least 1, got %d", errUsage, f.name, f.v)
		}
	}

	// The mirror answers every pool query directly (no rewriting, serial)
	// between rounds; served answers are checked against these references.
	mirror, err := w.Case.CompileContext(ctx, aggview.Options{})
	if err != nil {
		return fmt.Errorf("compiling mirror: %w", err)
	}
	mirror.Opts.Workers = 1

	inproc := cfg.addr == ""
	var doer server.Doer
	var srv *server.Server
	base := cfg.addr
	baseline := 0
	if inproc {
		sys, err := w.Case.CompileContext(ctx, aggview.Options{})
		if err != nil {
			return fmt.Errorf("compiling served system: %w", err)
		}
		srv = server.New(sys, server.Config{DefaultTenant: server.TenantConfig{
			Rate:        cfg.rate,
			SlowQueryNs: cfg.slow.Nanoseconds(),
		}})
		defer srv.Close()
		doer = &server.InProcessExec{S: srv}
		base = "http://inproc"
		runtime.GC()
		baseline = runtime.NumGoroutine()
	}

	rep := report.New[reproRow](loadTool)
	rep.Seeds = []int64{cfg.seed}
	rep.Counts["sessions"] = int64(cfg.sessions)
	rep.Counts["rounds"] = int64(cfg.rounds)
	t := &tally{}
	sqls := make([]string, len(w.Queries))
	for i, q := range w.Queries {
		sqls[i] = q.SQL()
	}
	perSession := cfg.n / (cfg.sessions * cfg.rounds)
	if perSession < 1 {
		perSession = 1
	}
	admin := &server.Client{Base: base, HTTP: doer}
	mutRng := rand.New(rand.NewSource(cfg.seed + 99))

	for round := 0; round < cfg.rounds; round++ {
		if ctx.Err() != nil {
			break
		}
		// Frozen-state references for this round.
		refs := make([]*engine.Relation, len(sqls))
		for i, sql := range sqls {
			ref, err := mirror.QueryContext(ctx, sql)
			if err != nil {
				return fmt.Errorf("mirror round %d query %d: %w", round, i, err)
			}
			refs[i] = ref
		}
		faultRound := cfg.faults && round%3 == 2
		if faultRound {
			if err := admin.SetFaults(ctx, 1+mutRng.Int63n(16)); err != nil {
				return fmt.Errorf("installing faults: %w", err)
			}
			rep.Counts["fault_rounds"]++
		}

		var wg sync.WaitGroup
		for s := 0; s < cfg.sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				srng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(round)*1_009 + int64(s)))
				c := &server.Client{
					Base:   base,
					HTTP:   doer,
					Tenant: fmt.Sprintf("t%d", s%cfg.tenants),
				}
				for i := 0; i < perSession && ctx.Err() == nil; i++ {
					qi := srng.Intn(len(sqls))
					session(ctx, c, srng, sqls[qi], refs[qi], cfg.cancelFrac, t)
				}
			}(s)
		}
		wg.Wait()

		if faultRound {
			if err := admin.SetFaults(ctx, 0); err != nil {
				return fmt.Errorf("clearing faults: %w", err)
			}
		}
		if cfg.mutate && round < cfg.rounds-1 {
			// Mutation barrier: same rows into the server and the mirror.
			// Server-side this funnels through the invalidation hook, so
			// plans over the table are evicted and next round's repeats of
			// the same shapes replan against fresh state.
			names := w.TableNames()
			table := names[mutRng.Intn(len(names))]
			rows := w.Rows(mutRng, table, 1+mutRng.Intn(4))
			if len(rows) > 0 {
				if _, err := admin.Insert(ctx, table, server.EncodeRows(rows)); err != nil {
					return fmt.Errorf("server insert into %s: %w", table, err)
				}
				if err := mirror.InsertContext(ctx, table, rows...); err != nil {
					return fmt.Errorf("mirror insert into %s: %w", table, err)
				}
				rep.Counts["inserts"]++
			}
		}
	}

	// Drain check: with everything released, the in-process server must
	// hold no goroutines beyond the pre-soak baseline.
	if inproc {
		leaked := 0
		for i := 0; i < 100; i++ {
			runtime.GC()
			leaked = runtime.NumGoroutine() - baseline
			if leaked <= 0 {
				leaked = 0
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		rep.Counts["leaked_goroutines"] = int64(leaked)
	}

	t.mu.Lock()
	c := rep.Counts
	c["requests"] = t.requests
	c["ok"] = t.ok
	c["mismatches"] = t.mismatches
	c["shed"] = t.shed
	c["typed_errors"] = t.typedErrors
	c["untyped_errors"] = t.untypedErrors
	c["client_cancels"] = t.clientCancels
	c["cache_hits"] = t.cacheHits
	c["cache_misses"] = t.cacheMisses
	lats := append([]int64{}, t.latencies...)
	samples := append([]string{}, t.samples...)
	t.mu.Unlock()
	// Percentiles over answered (200) requests, exact from the sample.
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		c["client_latency.p50_ns"] = lats[int(0.50*float64(n-1))]
		c["client_latency.p90_ns"] = lats[int(0.90*float64(n-1))]
		c["client_latency.p99_ns"] = lats[int(0.99*float64(n-1))]
		c["client_latency.max_ns"] = lats[n-1]
	}
	c["pool"] = int64(len(sqls))
	rep.Notes = append(rep.Notes, fmt.Sprintf("inproc=%v", inproc))

	var failed error
	switch {
	case c["mismatches"] > 0:
		failed = fmt.Errorf("%d answer mismatches", c["mismatches"])
	case c["untyped_errors"] > 0:
		failed = fmt.Errorf("%d untyped failures", c["untyped_errors"])
	case c["leaked_goroutines"] > 0:
		failed = fmt.Errorf("%d leaked goroutines", c["leaked_goroutines"])
	case c["cache_hits"] == 0 && c["ok"] > int64(2*len(sqls)):
		failed = fmt.Errorf("plan cache never hit over %d answered repeats of %d shapes", c["ok"], len(sqls))
	}
	hitRate := 0.0
	if answered := c["cache_hits"] + c["cache_misses"]; answered > 0 {
		hitRate = float64(c["cache_hits"]) / float64(answered)
	}
	fmt.Printf("load: %d requests, %d ok, %d mismatches, %d shed, %d typed errors, %d untyped, %d cancels; cache %d/%d (hit rate %.2f); p50=%s p99=%s; leaked=%d\n",
		c["requests"], c["ok"], c["mismatches"], c["shed"], c["typed_errors"], c["untyped_errors"],
		c["client_cancels"], c["cache_hits"], c["cache_hits"]+c["cache_misses"], hitRate,
		time.Duration(c["client_latency.p50_ns"]), time.Duration(c["client_latency.p99_ns"]), c["leaked_goroutines"])
	for _, s := range samples {
		fmt.Fprintln(os.Stderr, "MISMATCH:", s)
	}
	if cfg.telemetry {
		tfailed, err := collectTelemetry(ctx, admin, cfg, rep)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		if failed == nil && tfailed != nil {
			failed = fmt.Errorf("telemetry: %w", tfailed)
		}
	}

	if failed != nil {
		rep.Verdict = "fail"
		rep.Notes = append(rep.Notes, failed.Error())
	}
	if cfg.jsonOut != "" {
		if err := rep.WriteFile(cfg.jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadrunner: wrote report to %s\n", cfg.jsonOut)
	}
	return failed
}

// maxReplayedRepros bounds the offline replay sample per telemetry
// pass; entries beyond it are counted but not re-executed (noted in the
// report so the cap is never silent).
const maxReplayedRepros = 4

// reproRow is one slow-query repro re-checked offline: the script from
// the server's slow-query log was replayed through oracle.Replay on a
// fresh system and bag-compared against the answer the server recorded.
type reproRow struct {
	SQL       string `json:"sql"`
	Tenant    string `json:"tenant,omitempty"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Rows      int    `json:"rows"`
	Match     bool   `json:"match"`
}

// collectTelemetry scrapes the server's telemetry surfaces after the
// soak into rep: per-tenant latency quantiles from /metrics (bucket
// upper edges of the server's fixed-boundary histograms) as
// latency.<tenant>.*, flight-recorder occupancy as flight.*
// (strict-decoded, so schema drift fails loudly), the slow-query log's
// size as slow.*, and a sample of its repros replayed offline as rows.
// Each replayed script must reproduce the exact answer bag the server
// recorded; with a slow threshold set, a run that captured no slow
// queries fails too. The first return is that verdict; the second an
// error that stopped the pass.
func collectTelemetry(ctx context.Context, c *server.Client, cfg config, rep *report.Report[reproRow]) (failed, err error) {
	m, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	const pfx = "server.latency."
	tenants := 0
	for name, ls := range m.Metrics.Latencies {
		tenant, ok := strings.CutPrefix(name, pfx)
		if !ok {
			continue
		}
		tenants++
		rep.Counts["latency."+tenant+".count"] = ls.Count
		rep.Counts["latency."+tenant+".sum_ns"] = ls.SumNs
		rep.Counts["latency."+tenant+".p50_ns"] = ls.P50Ns
		rep.Counts["latency."+tenant+".p95_ns"] = ls.P95Ns
		rep.Counts["latency."+tenant+".p99_ns"] = ls.P99Ns
	}

	fr, err := c.FlightRec(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /debug/flightrec: %w", err)
	}
	rep.Counts["flight.capacity"] = int64(fr.Capacity)
	rep.Counts["flight.appended"] = int64(fr.Appended)
	rep.Counts["flight.dropped"] = int64(fr.Dropped)
	rep.Counts["flight.spans"] = int64(len(fr.Spans))

	sl, err := c.SlowLog(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /debug/slowlog: %w", err)
	}
	rep.Counts["slow.total"] = sl.Total
	rep.Counts["slow.retained"] = int64(len(sl.Entries))
	// Prefer repros whose recorded answer is non-empty: bag-equality on
	// two empty relations is trivially true, so an all-empty sample
	// would not actually exercise the replay contract.
	sample := make([]server.SlowEntry, 0, len(sl.Entries))
	for _, e := range sl.Entries {
		if len(e.Rows) > 0 {
			sample = append(sample, e)
		}
	}
	for _, e := range sl.Entries {
		if len(e.Rows) == 0 {
			sample = append(sample, e)
		}
	}
	if len(sample) > maxReplayedRepros {
		sample = sample[:maxReplayedRepros]
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("replayed %d of %d retained repros", maxReplayedRepros, len(sl.Entries)))
	}
	mismatches := 0
	for _, e := range sample {
		cs, err := oracle.Replay(e.Script)
		if err == nil && (len(cs.Steps) != 1 || cs.Steps[0].Kind != oracle.StepQuery) {
			err = fmt.Errorf("want the setup and one SELECT, got %d steps", len(cs.Steps))
		}
		if err != nil {
			return nil, fmt.Errorf("replaying repro %q: %w", e.SQL, err)
		}
		fresh, err := cs.CompileContext(ctx, aggview.Options{})
		if err != nil {
			return nil, fmt.Errorf("compiling repro %q: %w", e.SQL, err)
		}
		fresh.Opts.Workers = 1
		got, err := fresh.QueryContext(ctx, cs.Steps[0].Query.SQL())
		if err != nil {
			return nil, fmt.Errorf("running repro %q: %w", e.SQL, err)
		}
		want, err := server.DecodeRelation(e.Attrs, e.Rows)
		if err != nil {
			return nil, fmt.Errorf("decoding recorded answer of %q: %w", e.SQL, err)
		}
		match := engine.ResultsEqualBag(want, got)
		if !match {
			mismatches++
		}
		rep.Rows = append(rep.Rows, reproRow{
			SQL:       e.SQL,
			Tenant:    e.Tenant,
			ElapsedNs: e.ElapsedNs,
			Rows:      len(e.Rows),
			Match:     match,
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("slow_threshold=%s", cfg.slow))

	fmt.Printf("telemetry: %d tenants, flight %d/%d spans (%d dropped), slow %d captured %d retained, %d repros replayed, %d mismatches\n",
		tenants, len(fr.Spans), fr.Capacity, fr.Dropped, sl.Total, len(sl.Entries), len(sample), mismatches)
	switch {
	case mismatches > 0:
		return fmt.Errorf("%d slow-query repros did not reproduce the recorded answer", mismatches), nil
	case cfg.slow > 0 && sl.Total == 0:
		return fmt.Errorf("slow threshold %s set but no slow queries captured", cfg.slow), nil
	case tenants == 0:
		return fmt.Errorf("no per-tenant latency histograms in /metrics"), nil
	}
	return nil, nil
}

// session issues one request and classifies the outcome.
func session(ctx context.Context, c *server.Client, rng *rand.Rand, sql string, ref *engine.Relation, cancelFrac float64, t *tally) {
	t.mu.Lock()
	t.requests++
	t.mu.Unlock()

	reqCtx := ctx
	deliberate := rng.Float64() < cancelFrac
	if deliberate {
		// Simulated disconnect: cancel somewhere inside the request's
		// lifetime. The engine must unwind with a typed error and the
		// server must not leak the worker.
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(2_000))*time.Microsecond)
		defer cancel()
	}

	start := time.Now()
	resp, err := c.Query(reqCtx, sql)
	elapsed := time.Since(start).Nanoseconds()

	t.mu.Lock()
	defer t.mu.Unlock()
	if deliberate {
		t.clientCancels++
	}
	if err != nil {
		if we, ok := err.(*server.WireError); ok {
			switch we.Kind {
			case server.ErrKindShed:
				t.shed++
			case server.ErrKindCanceled, server.ErrKindBudget, server.ErrKindStorage:
				t.typedErrors++
			default:
				t.untypedErrors++
				if len(t.samples) < 5 {
					t.samples = append(t.samples, fmt.Sprintf("wire error %s: %s (query %s)", we.Kind, we.Message, sql))
				}
			}
			return
		}
		if deliberate || ctx.Err() != nil {
			return // transport abort from our own cancel or shutdown
		}
		t.untypedErrors++
		if len(t.samples) < 5 {
			t.samples = append(t.samples, fmt.Sprintf("transport error: %v (query %s)", err, sql))
		}
		return
	}

	t.ok++
	t.latencies = append(t.latencies, elapsed)
	switch resp.Cache {
	case "hit":
		t.cacheHits++
	case "miss":
		t.cacheMisses++
	}
	got, err := resp.Relation()
	if err != nil {
		t.untypedErrors++
		if len(t.samples) < 5 {
			t.samples = append(t.samples, fmt.Sprintf("undecodable body: %v (query %s)", err, sql))
		}
		return
	}
	// The core check: even mid-fault-window, a 200 answer must be
	// exactly what direct evaluation produces on the same frozen state.
	if !engine.ResultsEqualBag(ref, got) {
		t.mismatches++
		if len(t.samples) < 5 {
			t.samples = append(t.samples, fmt.Sprintf("query %s: served %d rows, direct %d rows", sql, got.Len(), ref.Len()))
		}
	}
}
