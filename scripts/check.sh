#!/bin/sh
# Tier-1 verification: build, vet, static analysis, tests, and the race
# suite. The race pass is mandatory because the engine runs a worker
# pool (see DESIGN.md section 6); a green plain suite with a racy kernel
# is not green.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Every CLI that writes a report (DESIGN.md section 7) writes one here,
# into temporary files removed on exit.
VET_JSON="$(mktemp /tmp/aggvet.XXXXXX.json)"
LINT_JSON="$(mktemp /tmp/aggview-lint.XXXXXX.json)"
TRACE_JSON="$(mktemp /tmp/aggview-trace.XXXXXX.json)"
LOAD_JSON="$(mktemp /tmp/loadrunner.XXXXXX.json)"
trap 'rm -f "$VET_JSON" "$LINT_JSON" "$TRACE_JSON" "$LOAD_JSON"' EXIT

# Project-specific static analysis (DESIGN.md section 8): the six
# aggvet analyzers guard the determinism (maporder) and float-comparison
# (floateq) invariants plus the v2 checks —
# ctx threading on blocking paths (ctxflow), typed-error classification
# and %w wrapping (errtaxonomy), index-ordered parallel merges
# (detmerge) and canonical-key escaping (keyescape). The gate is zero
# unsuppressed findings; on failure aggvet prints per-analyzer finding
# and suppression counts to stderr, and its report carries the same
# tallies as counts. `aggview lint` gates the bundled catalog on the IR
# soundness checks.
go run ./cmd/aggvet -json "$VET_JSON" ./...
go run ./cmd/aggview lint -json "$LINT_JSON" cmd/aggview/testdata/demo.sql

# Observability gate (DESIGN.md section 9): trace the rewrite search
# over the demo catalog, then strictly re-read the written report and
# prove it round-trips through JSON without loss.
go run ./cmd/aggview explain -trace -json "$TRACE_JSON" cmd/aggview/testdata/demo.sql > /dev/null
go run ./cmd/aggview explain -replay "$TRACE_JSON"

go test ./...
go test -race -short ./...

# Fault-injection gate (DESIGN.md section 10): the cancellation,
# deadline, budget and injection suites under the race detector — a
# canceled kernel must return the exact bag or a typed error, drain its
# pool, and leak nothing.
go test -race -short -run 'Cancel|Budget|FaultInject' ./...

# Differential-oracle gates (DESIGN.md sections 7 and 14): one checker
# over two generators, well under 30s together. Every case tracks its
# views and walks its steps. Each query step is executed directly and
# through every rewriting at worker counts 1 and GOMAXPROCS — a
# group-preserving rewriting's select-project form too (the summary
# counts them) — and re-run under seeded faults (-faults defaults to
# on); each mutation step is followed by re-deriving every view from its
# definition. One case in 16 has its anchor table grown to span three
# storage chunks, so chunk skipping, cross-chunk selections and deltas
# meet generated shapes (the summary line counts them).
#
# Query gate: 300 one-query instances. With -wire each query is also
# answered through the serving stack, cold and warm plan cache, and
# must stay bag-equal. `make soak` runs the long version.
go run ./cmd/oraclerunner -seeds 1,2 -n 150 -multichunk 16 -wire

# Mutation gate: 320 scenarios of inserts/deletes/updates/queries. Their
# mutations are also replayed under concurrent snapshot readers (no torn
# batches) and with cancellations injected at the maintenance site
# (exact bag or clean typed abort, pre-state intact, clean retry
# succeeds). `make mutate` runs the long version.
go run ./cmd/oraclerunner -mutate -seeds 21,22 -n 160 -multichunk 16

# Telemetry gate (DESIGN.md section 13): a seeded in-process workload
# with a 1ns slow-query threshold; the telemetry pass strict-decodes
# /debug/flightrec (unknown span fields fail loudly), requires
# per-tenant latency histograms, and replays slow-query repros offline
# — loadrunner's verdict fails, and it exits nonzero, unless every
# replayed script reproduces the exact answer bag the server recorded.
go run ./cmd/loadrunner -seed 7 -sessions 4 -rounds 3 -n 180 -slow 1ns -telemetry -json "$LOAD_JSON"

# Server smoke gate (DESIGN.md section 12): start aggserve on an
# ephemeral port, drive 100+ mixed-tenant requests through loadrunner
# (mutation barriers and storage-fault windows on; every 200 checked
# bag-equal against a serial mirror), then SIGINT the server and
# require a clean shutdown.
sh scripts/serve_smoke.sh

# Paper experiments (EXPERIMENTS.md): every table of the E-series at its
# quick scales; exits nonzero if any experiment panics.
go run ./cmd/benchrunner -quick > /dev/null

# Benchmark gate (BENCHMARK.json): the bench module must vet and pass
# its own tests, and short runs of all four workloads must exit 0 — the
# correctness gate compares every query template with direct evaluation
# and every tracked view with its definition after the timed ops. On
# plan_cold that is 16 constant settings of the paper's Q whose plan is
# a group-preserving select-project over V1 (Month and Year pinned, the
# HAVING threshold moved into WHERE), each prepared cold. It decodes each served reply with the wire client
# (resp.Relation()), so on view_hit, whose replies are the largest, a
# wrong byte from the handler's append encoder or the client's scanner
# fails here; on base_scan it bag-compares every scan template over all
# of Calls' chunks with evaluation on a pinned snapshot, so a position
# mis-split between chunks fails here. Nothing here edits bench/; build
# outputs go to .bench_build/.
(cd bench && go vet ./... && go test ./...)
bash bench/run.sh --workload write_mix --seconds 3 --trace 0 > /dev/null
bash bench/run.sh --workload view_hit --seconds 3 --trace 0 > /dev/null
bash bench/run.sh --workload base_scan --seconds 3 --trace 0 > /dev/null
bash bench/run.sh --workload plan_cold --seconds 3 --trace 0 > /dev/null
