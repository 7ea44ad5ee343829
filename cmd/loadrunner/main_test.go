package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aggview/internal/report"
)

// TestShortSoak runs a scaled-down in-process soak end to end: run
// returns nil only when there were zero mismatches, zero untyped
// failures, zero leaked goroutines and a warm plan cache — so this one
// call is the whole acceptance gate in miniature. Its report reads back
// strictly with a passing verdict and no telemetry in it.
func TestShortSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := filepath.Join(t.TempDir(), "load.json")
	err := run(ctx, config{
		seed: 5, sessions: 8, rounds: 3, n: 240, poolSize: 8,
		mutate: true, faults: true, cancelFrac: 0.05, tenants: 3,
		jsonOut: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.Read[reproRow](out, loadTool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "pass" || len(rep.Rows) != 0 || rep.Counts["requests"] < 240 || rep.Counts["cache_hits"] == 0 {
		t.Fatalf("report: verdict %s, %d rows, counts %v", rep.Verdict, len(rep.Rows), rep.Counts)
	}
	if _, ok := rep.Counts["flight.spans"]; ok {
		t.Fatalf("telemetry counts without -telemetry: %v", rep.Counts)
	}
}

// TestTelemetrySoak runs a small soak with the telemetry pass and a 1ns
// slow-query threshold: the one report carries per-tenant latency and
// flight-recorder counts and replayed repros, every one a match.
func TestTelemetrySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := filepath.Join(t.TempDir(), "load.json")
	err := run(ctx, config{
		seed: 7, sessions: 4, rounds: 3, n: 120, poolSize: 6,
		mutate: true, faults: true, tenants: 3,
		jsonOut: out, slow: time.Nanosecond, telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.Read[reproRow](out, loadTool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "pass" || len(rep.Rows) == 0 || rep.Counts["slow.total"] == 0 || rep.Counts["latency.t0.p99_ns"] == 0 {
		t.Fatalf("report: verdict %s, %d rows, counts %v", rep.Verdict, len(rep.Rows), rep.Counts)
	}
	for _, k := range []string{"flight.capacity", "flight.appended", "flight.dropped", "flight.spans"} {
		if _, ok := rep.Counts[k]; !ok {
			t.Errorf("counts lack %s: %v", k, rep.Counts)
		}
	}
	for _, r := range rep.Rows {
		if !r.Match {
			t.Errorf("repro did not reproduce: %+v", r)
		}
	}
}

// TestRejectsEmptyCounts: a session, round or tenant count below 1 is a
// usage error, not a division by zero.
func TestRejectsEmptyCounts(t *testing.T) {
	ctx := context.Background()
	for _, zero := range []func(*config){
		func(c *config) { c.sessions = 0 },
		func(c *config) { c.rounds = 0 },
		func(c *config) { c.tenants = 0 },
		func(c *config) { c.sessions = -1 },
	} {
		cfg := config{seed: 1, sessions: 2, rounds: 2, tenants: 2, n: 8, poolSize: 4}
		zero(&cfg)
		if err := run(ctx, cfg); !errors.Is(err, errUsage) {
			t.Errorf("config %+v: got %v, want a usage error", cfg, err)
		}
	}
}

// TestSoakSeedsDeterministic pins that two runs from one seed generate
// the same workload (the property external mode depends on: server and
// harness rebuild the same instance independently).
func TestSoakSeedsDeterministic(t *testing.T) {
	ctx := context.Background()
	a := filepath.Join(t.TempDir(), "a.sql")
	b := filepath.Join(t.TempDir(), "b.sql")
	if err := run(ctx, config{seed: 42, emit: a}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, config{seed: 42, emit: b}); err != nil {
		t.Fatal(err)
	}
	sa, sb := readFile(t, a), readFile(t, b)
	if sa != sb {
		t.Fatal("same seed emitted different workload scripts")
	}
	if sa == "" {
		t.Fatal("empty workload script")
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
