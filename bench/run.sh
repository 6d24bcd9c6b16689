#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): builds the harness
# from source inside the checkout, then runs it with the arguments given.
# Run from the repository root: bash bench/run.sh --workload rpc-small --seed 1 --seconds 12 --trace 0
# Build cache, temporary files and the binary all stay under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" go build -C bench -o "$build/hadasbench" .
exec "$build/hadasbench" "$@"
