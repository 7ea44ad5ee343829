#!/bin/sh
# Server smoke gate (DESIGN.md section 12): build aggserve and
# loadrunner, start the server on an ephemeral port from a seeded
# workload script, drive 100+ mixed-tenant requests over real TCP with
# mutation barriers and storage-fault windows on, require zero answer
# mismatches and a warm plan cache (loadrunner exits nonzero on
# either), run a telemetry pass (per-tenant latency histograms, flight
# recorder, slow-query repros replayed offline), probe the goroutine
# gauge before and after the workload to catch external-mode leaks,
# then SIGINT the server and require a clean shutdown.
set -eu

cd "$(dirname "$0")/.."

SEED="${SEED:-7}"
WORK="$(mktemp -d /tmp/aggserve-smoke.XXXXXX)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/aggserve" ./cmd/aggserve
go build -o "$WORK/loadrunner" ./cmd/loadrunner

# The harness and the server rebuild the same workload from one seed.
"$WORK/loadrunner" -seed "$SEED" -emit-script "$WORK/db.sql"
"$WORK/aggserve" -script "$WORK/db.sql" -addr 127.0.0.1:0 \
    -slow 1ns -addr-file "$WORK/addr" 2> "$WORK/server.log" &
SRV_PID=$!

i=0
while [ ! -s "$WORK/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve_smoke: server never bound" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
        echo "serve_smoke: server exited before binding" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.1
done

BASE="http://$(cat "$WORK/addr")"

# Goroutine-leak probe, before: the loadrunner harness's in-process
# leak check cannot see across TCP, so the external gate scrapes the
# server's own goroutine gauge around the workload instead.
G_BEFORE="$("$WORK/loadrunner" -addr "$BASE" -scrape-gauge server.goroutines)"

"$WORK/loadrunner" -seed "$SEED" -addr "$BASE" \
    -sessions 8 -rounds 4 -n 128 -queries 8 \
    -slow 1ns -telemetry -json "$WORK/load.json"
test -s "$WORK/load.json" || {
    echo "serve_smoke: load report missing" >&2
    exit 1
}

# Goroutine-leak probe, after: request workers must not outlive their
# requests. Idle-server scheduling noise (timer and poller goroutines)
# allows a small tolerance; a per-request leak over 128 requests would
# far exceed it. Retry while the last connections drain.
G_TOL=8
i=0
while :; do
    G_AFTER="$("$WORK/loadrunner" -addr "$BASE" -scrape-gauge server.goroutines)"
    [ "$G_AFTER" -le $((G_BEFORE + G_TOL)) ] && break
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "serve_smoke: goroutine leak over TCP: $G_BEFORE before, $G_AFTER after 128 requests" >&2
        exit 1
    fi
    sleep 0.1
done
echo "serve_smoke: goroutine probe ok ($G_BEFORE before, $G_AFTER after)"

# Clean shutdown: SIGINT must drain in-flight work and exit 0.
kill -INT "$SRV_PID"
if ! wait "$SRV_PID"; then
    echo "serve_smoke: server did not shut down cleanly on SIGINT" >&2
    cat "$WORK/server.log" >&2
    exit 1
fi
SRV_PID=""
grep -q "shut down cleanly" "$WORK/server.log" || {
    echo "serve_smoke: missing clean-shutdown marker" >&2
    cat "$WORK/server.log" >&2
    exit 1
}
echo "serve_smoke: ok"
