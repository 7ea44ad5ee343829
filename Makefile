GO ?= go

.PHONY: build test race vet lint check bench bench-pair loc quick soak mutate trace faults serve-smoke load flightrec

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the project's own static analysis (DESIGN.md section 8):
# the aggvet analyzer suite over every package, and the IR soundness
# linter over the bundled catalog.
lint:
	$(GO) run ./cmd/aggvet ./...
	$(GO) run ./cmd/aggview lint cmd/aggview/testdata/demo.sql

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the tier-1 verify path: build + vet + lint + tests + race
# suite.
check:
	sh scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-pair measures the working tree against REV on the repository's
# benchmark (BENCHMARK.json): PAIRS alternating runs of bench/run.sh per
# side, one seed per pair, SECONDS timed seconds each, printed as the
# markdown table CHANGES.md carries. W is a workload name or `all`.
REV ?= HEAD~1
W ?= all
PAIRS ?= 10
SECONDS ?= 18
bench-pair:
	bash scripts/bench_pair.sh $(REV) $(W) $(PAIRS) $(SECONDS)

# loc prints the net Go lines of the working tree against REV per
# package, split into non-test, test and bench/, as the markdown table
# CHANGES.md carries; lines git's move detection marks as moved are
# counted in a column of their own, not as added or removed.
loc:
	sh scripts/loc.sh $(REV)

# trace records the rewrite search over the bundled catalog and
# replays the written report to prove the trace round-trips losslessly
# (DESIGN.md section 9).
trace:
	$(GO) run ./cmd/aggview explain -trace -json TRACE_DEMO.json cmd/aggview/testdata/demo.sql
	$(GO) run ./cmd/aggview explain -replay TRACE_DEMO.json

quick:
	$(GO) run ./cmd/benchrunner -quick

# faults runs the full cancellation/budget/fault-injection suites under
# the race detector, then a short oracle soak with injection on every
# trial (DESIGN.md section 10).
faults:
	$(GO) test -race -run 'Cancel|Budget|FaultInject' ./...
	$(GO) run ./cmd/oraclerunner -seeds 11,12 -n 200

# serve-smoke is the CI serving gate (DESIGN.md section 12): start
# aggserve on an ephemeral port from a seeded workload, drive 100+
# mixed-tenant requests over TCP with mutations and fault windows on,
# require zero mismatches and a clean SIGINT shutdown.
serve-smoke:
	sh scripts/serve_smoke.sh

# load runs the full serving soak in-process: 8 concurrent sessions,
# mutation barriers, storage-fault windows and client cancels, every
# 200 differentially checked against a serial mirror, with a
# goroutine-leak check at the end. Writes its report to LOAD_SOAK.json
# (a run artefact, not checked in).
load:
	$(GO) run ./cmd/loadrunner -seed 7 -sessions 8 -rounds 6 -n 1200 -json LOAD_SOAK.json

# flightrec runs a seeded in-process soak with a 1ns slow-query
# threshold (every answered query captured) and the telemetry pass, and
# writes the run's one report to LOAD_SOAK.json (a run artefact, not
# checked in): per-tenant latency quantiles, flight-recorder occupancy,
# and slow-query repros replayed offline — each must reproduce the
# recorded answer bag exactly (DESIGN.md section 13).
flightrec:
	$(GO) run ./cmd/loadrunner -seed 7 -sessions 6 -rounds 4 -n 400 -slow 1ns -telemetry -json LOAD_SOAK.json

# soak runs the differential-testing oracle over a fixed seed set, both
# rewriter configurations, and writes a failure report (empty on a clean
# run). See DESIGN.md section 7. It then fuzzes the wire client's
# response decoder against encoding/json (DESIGN.md section 12); plain
# `go test` runs that target's seed corpus only.
soak:
	$(GO) run ./cmd/oraclerunner -seeds 1,2,3,4,5,6,7,8 -n 2000 -multichunk 16 -v -json ORACLE_SOAK.json
	$(GO) run ./cmd/oraclerunner -seeds 1,2,3,4 -n 1000 -multichunk 16 -paper
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzQueryResponseDecode -fuzztime 30s

# mutate soaks the mutation oracle (DESIGN.md section 14): seeded
# insert/delete/update/query scenarios over tracked views, checked
# serially, under concurrent snapshot readers, and with cancellations
# injected at the maintenance site. Violations shrink to minimal
# mutation scripts replayable with `oraclerunner -mutate -replay` or
# `aggserve -script`.
mutate:
	$(GO) run ./cmd/oraclerunner -mutate -seeds 21,22,23,24 -n 300 -multichunk 16 -v -json MUTATE_SOAK.json
