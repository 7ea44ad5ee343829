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
// Exit status is nonzero on any answer mismatch, untyped failure,
// leaked goroutine, or (for warm soaks) an all-miss plan cache.
package main

import (
	"context"
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
	"aggview/internal/benchjson"
	"aggview/internal/engine"
	"aggview/internal/oracle"
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
	jsonOut := flag.String("json", "", "write a benchjson.LoadReport to this file")
	slow := flag.Duration("slow", 0, "in-process slow-query threshold (0: no slow-query capture); external servers configure theirs via aggserve -slow")
	telemetry := flag.String("telemetry", "", "after the soak, scrape /metrics, /debug/flightrec and /debug/slowlog, replay slow-query repros offline, and write a benchjson.TelemetryReport to this file")
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
		os.Exit(1)
	}
}

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
	telemetry           string
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

	// The mirror answers every pool query directly (no rewriting, serial)
	// between rounds; served answers are checked against these references.
	mirror, err := w.Case.CompileContext(ctx, aggview.Options{})
	if err != nil {
		return fmt.Errorf("compiling mirror: %w", err)
	}
	mirror.Opts.Workers = 1
	for _, v := range mirror.Views.All() {
		if _, err := mirror.TrackViewContext(ctx, v.Name); err != nil {
			return fmt.Errorf("tracking mirror view %s: %w", v.Name, err)
		}
	}

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
		for _, v := range sys.Views.All() {
			if _, err := sys.TrackViewContext(ctx, v.Name); err != nil {
				return fmt.Errorf("tracking view %s: %w", v.Name, err)
			}
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

	rep := benchjson.NewLoad(cfg.seed, cfg.sessions, cfg.rounds)
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
	faultRounds := 0

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
			faultRounds++
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
				rep.Inserts++
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
		rep.LeakedGoroutines = leaked
	}

	t.mu.Lock()
	rep.Requests = t.requests
	rep.OK = t.ok
	rep.Mismatches = t.mismatches
	rep.Shed = t.shed
	rep.TypedErrors = t.typedErrors
	rep.UntypedErrors = t.untypedErrors
	rep.ClientCancels = t.clientCancels
	rep.CacheHits = t.cacheHits
	rep.CacheMisses = t.cacheMisses
	lats := append([]int64{}, t.latencies...)
	samples := append([]string{}, t.samples...)
	t.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.Finish(lats)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("pool=%d fault_rounds=%d inproc=%v", len(sqls), faultRounds, inproc))

	if cfg.jsonOut != "" {
		if err := rep.WriteFile(cfg.jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadrunner: wrote report to %s\n", cfg.jsonOut)
	}
	if cfg.telemetry != "" {
		if err := collectTelemetry(ctx, admin, cfg, inproc); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	fmt.Printf("load: %d requests, %d ok, %d mismatches, %d shed, %d typed errors, %d untyped, %d cancels; cache %d/%d (hit rate %.2f); p50=%s p99=%s; leaked=%d\n",
		rep.Requests, rep.OK, rep.Mismatches, rep.Shed, rep.TypedErrors, rep.UntypedErrors,
		rep.ClientCancels, rep.CacheHits, rep.CacheHits+rep.CacheMisses, rep.HitRate,
		time.Duration(rep.P50Ns), time.Duration(rep.P99Ns), rep.LeakedGoroutines)
	for _, s := range samples {
		fmt.Fprintln(os.Stderr, "MISMATCH:", s)
	}

	switch {
	case rep.Mismatches > 0:
		return fmt.Errorf("%d answer mismatches", rep.Mismatches)
	case rep.UntypedErrors > 0:
		return fmt.Errorf("%d untyped failures", rep.UntypedErrors)
	case rep.LeakedGoroutines > 0:
		return fmt.Errorf("%d leaked goroutines", rep.LeakedGoroutines)
	case rep.CacheHits == 0 && rep.OK > int64(2*len(sqls)):
		return fmt.Errorf("plan cache never hit over %d answered repeats of %d shapes", rep.OK, len(sqls))
	}
	return nil
}

// maxReplayedRepros bounds the offline replay sample per telemetry
// pass; entries beyond it are counted but not re-executed (noted in the
// report so the cap is never silent).
const maxReplayedRepros = 4

// collectTelemetry scrapes the server's telemetry surfaces after the
// soak and writes a benchjson.TelemetryReport: per-tenant latency
// quantiles from /metrics, flight-recorder occupancy (strict-decoded,
// so schema drift fails loudly), and the slow-query log with a sample
// of repros replayed offline. Each replayed script must reproduce the
// exact answer bag the server recorded; with a slow threshold set, a
// run that captured no slow queries is an error too.
func collectTelemetry(ctx context.Context, c *server.Client, cfg config, inproc bool) error {
	rep := benchjson.NewTelemetry(cfg.seed)

	m, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	const pfx = "server.latency."
	var names []string
	for name := range m.Metrics.Latencies {
		if strings.HasPrefix(name, pfx) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ls := m.Metrics.Latencies[name]
		rep.Tenants = append(rep.Tenants, benchjson.TenantLatency{
			Tenant: strings.TrimPrefix(name, pfx),
			Count:  ls.Count,
			SumNs:  ls.SumNs,
			P50Ns:  ls.P50Ns,
			P95Ns:  ls.P95Ns,
			P99Ns:  ls.P99Ns,
		})
	}

	fr, err := c.FlightRec(ctx)
	if err != nil {
		return fmt.Errorf("scraping /debug/flightrec: %w", err)
	}
	rep.FlightCapacity = fr.Capacity
	rep.FlightAppended = fr.Appended
	rep.FlightDropped = fr.Dropped
	rep.FlightSpans = len(fr.Spans)

	sl, err := c.SlowLog(ctx)
	if err != nil {
		return fmt.Errorf("scraping /debug/slowlog: %w", err)
	}
	rep.SlowTotal = sl.Total
	rep.SlowRetained = len(sl.Entries)
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
	for _, e := range sample {
		cs, err := oracle.Replay(e.Script)
		if err != nil {
			return fmt.Errorf("replaying repro %q: %w", e.SQL, err)
		}
		fresh, err := cs.CompileContext(ctx, aggview.Options{})
		if err != nil {
			return fmt.Errorf("compiling repro %q: %w", e.SQL, err)
		}
		fresh.Opts.Workers = 1
		got, err := fresh.QueryContext(ctx, cs.Query.SQL())
		if err != nil {
			return fmt.Errorf("running repro %q: %w", e.SQL, err)
		}
		want, err := server.DecodeRelation(e.Attrs, e.Rows)
		if err != nil {
			return fmt.Errorf("decoding recorded answer of %q: %w", e.SQL, err)
		}
		match := engine.ResultsEqualBag(want, got)
		if !match {
			rep.ReproMismatches++
		}
		rep.Repros = append(rep.Repros, benchjson.ReplayedRepro{
			SQL:       e.SQL,
			Tenant:    e.Tenant,
			ElapsedNs: e.ElapsedNs,
			Rows:      len(e.Rows),
			Match:     match,
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("inproc=%v slow_threshold=%s", inproc, cfg.slow))

	if err := rep.WriteFile(cfg.telemetry); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadrunner: wrote telemetry to %s\n", cfg.telemetry)
	fmt.Printf("telemetry: %d tenants, flight %d/%d spans (%d dropped), slow %d captured %d retained, %d repros replayed, %d mismatches\n",
		len(rep.Tenants), rep.FlightSpans, rep.FlightCapacity, rep.FlightDropped,
		rep.SlowTotal, rep.SlowRetained, len(rep.Repros), rep.ReproMismatches)

	switch {
	case rep.ReproMismatches > 0:
		return fmt.Errorf("%d slow-query repros did not reproduce the recorded answer", rep.ReproMismatches)
	case cfg.slow > 0 && rep.SlowTotal == 0:
		return fmt.Errorf("slow threshold %s set but no slow queries captured", cfg.slow)
	case len(rep.Tenants) == 0:
		return fmt.Errorf("no per-tenant latency histograms in /metrics")
	}
	return nil
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
