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
EX_DIR="$(mktemp -d /tmp/aggview-examples.XXXXXX)"
trap 'rm -f "$VET_JSON" "$LINT_JSON" "$TRACE_JSON" "$LOAD_JSON"; rm -rf "$EX_DIR"' EXIT

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

# Write- and read-path benchmark smoke: go test ./... never runs a
# benchmark, so BenchmarkMaintainWarehouse (insert, delete and update
# over the six tracked views of a 100000-row warehouse),
# BenchmarkTrackWarehouse (each of those views tracked, one
# sub-benchmark per view: Track time has a standing number) and the
# engine half of BenchmarkViewRead (the six view_hit shapes through
# ExecPreparedColumns on the same warehouse) run once here and cannot go
# stale.
go test -run '^$' -bench BenchmarkMaintainWarehouse -benchtime 1x .
go test -run '^$' -bench BenchmarkTrackWarehouse -benchtime 1x .
go test -run '^$' -bench 'BenchmarkViewRead/.*/engine' -benchtime 1x .

# Canonical-key gate (DESIGN.md section 3): two fuzzed tuples'
# concatenated value.AppendKey bytes are equal exactly when the tuples
# are KeyEqual cell by cell.
go test -run '^$' -fuzz FuzzTupleKey -fuzztime 10s ./internal/value

# Value-rule gate (DESIGN.md section 3): value.Compare is a total order
# (antisymmetric, transitive) over fuzzed ints, floats, strings and
# bools, its 0 is KeyEqual and equal AppendKey bytes, and it orders two
# numbers as their exact values do.
go test -run '^$' -fuzz FuzzCompare -fuzztime 10s ./internal/value

# Exact-sum gate (DESIGN.md section 3): a value.Sum over fuzzed int and
# float addends, some subtracted, rounds as math/big's exact total does,
# and merging the totals of its two halves rounds the same.
go test -run '^$' -fuzz FuzzSum -fuzztime 10s ./internal/value

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
# on), each answer held to the oracle's naive reference evaluator, not
# to another engine run; each mutation step is followed by holding every
# view to the reference's evaluation of its definition and every base
# table to the oracle's own model of it (the summary counts the
# reference's answers, and the ones its row bound skipped, which should
# be none). One case in 16 has its anchor table grown to span three
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
# succeeds). Its summary counts the view deltas absorbed from the delta
# table itself, those of them that looked up each row's partner on a
# declared key ("(N keyed)": the join views over a keyed second table;
# it must stay above 0), and those taken by a delta query. `make mutate`
# runs the long version.
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

# Example smoke gate: every example program and the CLI's two end-to-end
# modes run to a zero exit (mobilecache also compares its offline
# answers with the server's), and a script's own INSERTs reach the
# answer `aggview -exec` prints. The script runs a second time under
# `-max-candidates 1`: its two views give the search more than one
# candidate, so the flag must reach the search's ctx (the report says
# "rewrite search cut") and the direct answer must match the unbounded
# one. Under a second together.
for ex in quickstart mobilecache chronicle advisor telco; do
	go build -o "$EX_DIR/$ex" "./examples/$ex"
done
"$EX_DIR/quickstart" > /dev/null
"$EX_DIR/mobilecache" > /dev/null
"$EX_DIR/chronicle" > /dev/null
"$EX_DIR/advisor" > /dev/null
"$EX_DIR/telco" -calls 20000 > /dev/null
go build -o "$EX_DIR/aggview" ./cmd/aggview
"$EX_DIR/aggview" -demo > /dev/null
printf 'CREATE TABLE T(A, B);\nCREATE VIEW V AS SELECT A, SUM(B) FROM T GROUP BY A;\nCREATE VIEW W AS SELECT A, B, COUNT(B) FROM T GROUP BY A, B;\nINSERT INTO T VALUES (1, 2), (3, 4);\nSELECT A, SUM(B) FROM T GROUP BY A;\n' > "$EX_DIR/script.sql"
"$EX_DIR/aggview" -exec "$EX_DIR/script.sql" > "$EX_DIR/script.out"
grep -qx '1 | 2' "$EX_DIR/script.out"
grep -qx '3 | 4' "$EX_DIR/script.out"
"$EX_DIR/aggview" -exec -max-candidates 1 "$EX_DIR/script.sql" > "$EX_DIR/cut.out"
grep -q '^rewrite search cut: ' "$EX_DIR/cut.out"
grep -qx 'executed directly' "$EX_DIR/cut.out"
grep ' | ' "$EX_DIR/script.out" > "$EX_DIR/script.ans"
grep ' | ' "$EX_DIR/cut.out" | cmp -s - "$EX_DIR/script.ans"

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
