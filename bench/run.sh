#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark and the
# aggserve binary its traced run compares against, from the checkout's
# own sources, into .bench_build/ at the checkout root, then runs the
# benchmark with the arguments given. Everything go writes (build cache,
# module cache) stays under .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
cd "$root/bench"
go build -o "$build/aggbench" . >&2
go build -o "$build/aggserve" aggview/cmd/aggserve >&2
cd "$root"
exec "$build/aggbench" -aggserve "$build/aggserve" -out bench/out "$@"
