// Aggserve hosts one aggview.System behind the multi-tenant HTTP
// serving facade (internal/server): per-tenant admission control with
// typed shedding, a prepared-plan cache keyed on the canonical query
// key, and wire-level metrics. It loads a SQL script (CREATE TABLE /
// INSERT / CREATE VIEW), materializes and tracks every declared view so
// inserts through the server keep them fresh, then serves until SIGINT
// or SIGTERM, shutting down gracefully (in-flight requests drain).
//
//	go run ./cmd/aggserve -script db.sql                     # serve on 127.0.0.1:8080
//	go run ./cmd/aggserve -script db.sql -addr 127.0.0.1:0 \
//	    -addr-file /tmp/aggserve.addr                        # ephemeral port, written to a file
//	go run ./cmd/aggserve -script db.sql -rate 50 -deadline 2s
//	go run ./cmd/aggserve -script db.sql -tenants tenants.json
//	go run ./cmd/aggserve -script db.sql -slow 50ms           # capture slow-query repros
//
// Endpoints: POST /query, POST /insert, POST /admin/faults,
// GET /metrics, GET /healthz, GET /script, GET /debug/flightrec,
// GET /debug/slowlog.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aggview"
	"aggview/internal/server"
	"aggview/internal/sqlparser"
)

func main() {
	script := flag.String("script", "", "SQL script: CREATE TABLE / INSERT / CREATE VIEW statements")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	cacheSize := flag.Int("cache", 0, "plan-cache capacity in entries (0: default 256, negative: disable)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max queries executing at once (0: 4×GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "max requests waiting for an execution slot (0: default 64)")
	maxWait := flag.Duration("max-wait", 0, "max wait for an execution slot (0: default 500ms)")
	rate := flag.Float64("rate", 0, "default tenant admission rate in requests/s (0: unlimited)")
	burst := flag.Int("burst", 0, "default tenant burst (0: floor(rate))")
	tenantQueue := flag.Int("tenant-queue", 8, "default tenant token wait-queue depth")
	deadline := flag.Duration("deadline", 0, "default per-request engine deadline (0: none)")
	maxRows := flag.Int64("max-rows", 0, "default per-request row budget (0: unlimited)")
	maxCandidates := flag.Int64("max-candidates", 0, "default per-request rewrite-candidate budget (0: unlimited)")
	tenantsFile := flag.String("tenants", "", "JSON file mapping tenant name to its admission config")
	paper := flag.Bool("paper", false, "paper-faithful rewriter configuration")
	workers := flag.Int("workers", 0, "engine worker count (0: GOMAXPROCS, 1: serial)")
	slow := flag.Duration("slow", 0, "default tenant slow-query threshold (0: no slow-query capture)")
	flightrec := flag.Int("flightrec", 0, "span flight-recorder capacity (0: default 256, negative: disable spans)")
	slowlog := flag.Int("slowlog", 0, "slow-query log retention in entries (0: default 64, negative: disable)")
	flag.Parse()

	if *script == "" {
		fmt.Fprintln(os.Stderr, "aggserve: -script is required")
		os.Exit(2)
	}
	cfg := server.Config{
		CacheSize:     *cacheSize,
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		MaxWait:       *maxWait,
		DefaultTenant: server.TenantConfig{
			Rate:          *rate,
			Burst:         *burst,
			MaxQueue:      *tenantQueue,
			Deadline:      *deadline,
			MaxRows:       *maxRows,
			MaxCandidates: *maxCandidates,
			SlowQueryNs:   slow.Nanoseconds(),
		},
		FlightRecorder: *flightrec,
		SlowLogSize:    *slowlog,
	}
	if *tenantsFile != "" {
		data, err := os.ReadFile(*tenantsFile)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &cfg.Tenants); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *tenantsFile, err))
		}
	}
	if err := run(*script, *addr, *addrFile, *paper, *workers, cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aggserve:", err)
	os.Exit(1)
}

func run(scriptPath, addr, addrFile string, paper bool, workers int, cfg server.Config) error {
	sys, err := loadSystem(scriptPath, paper, workers)
	if err != nil {
		return err
	}
	srv := server.New(sys, cfg)
	defer srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "aggserve: listening on %s\n", bound)

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight requests finish.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	<-errc // Serve has returned http.ErrServerClosed
	stats := srv.Cache().Stats()
	fmt.Fprintf(os.Stderr, "aggserve: shut down cleanly (plan cache: %d hits, %d misses, %d evictions, %d invalidated)\n",
		stats.Hits, stats.Misses, stats.Evictions, stats.Invalidated)
	return nil
}

// loadSystem builds the served system from a SQL script, parsed once:
// every statement executes in script order (a view names tables declared
// before it), and every declared view is then materialized and tracked
// so server-side writes keep it fresh incrementally.
func loadSystem(path string, paper bool, workers int) (*aggview.System, error) {
	ctx := context.Background()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	stmts, err := sqlparser.ParseScript(string(data))
	if err != nil {
		return nil, err
	}
	sys := aggview.New()
	sys.Opts.PaperFaithful = paper
	sys.Opts.Workers = workers
	for _, st := range stmts {
		// Oracle repro scripts end in a SELECT; queries are served through
		// POST /query. Everything else — declarations, inserts, and the
		// DELETE/UPDATE steps a mutation-soak repro carries — applies in
		// order, so the served state matches the script's.
		if _, isQuery := st.(*sqlparser.QueryStatement); isQuery {
			continue
		}
		if _, err := sys.ExecContext(ctx, st); err != nil {
			return nil, err
		}
	}
	for _, v := range sys.Views.All() {
		if _, err := sys.TrackViewContext(ctx, v.Name); err != nil {
			return nil, fmt.Errorf("tracking view %s: %w", v.Name, err)
		}
	}
	return sys, nil
}
