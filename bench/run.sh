#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark program from this
# checkout and runs it with the caller's arguments. Every build product,
# including Go's build cache, stays under .bench_build/ in the checkout, so a
# fresh checkout really compiles its own sources and nothing is written
# outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
mkdir -p .bench_build
go build -C bench -o ../.bench_build/bench .
exec .bench_build/bench "$@"
