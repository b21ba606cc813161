#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command). Builds the harness
# from this directory and hands it the arguments; the harness builds the
# system's own binaries. Everything the Go toolchain writes — build cache,
# telemetry, binaries — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
export HOME="$root/.bench_build/home" GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$HOME" "$root/.bench_build/bin"
(cd bench && go build -o "$root/.bench_build/bin/bench" .)
exec "$root/.bench_build/bin/bench" "$@"
