#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# keeping everything it writes (Go's build cache, the binary, temporary
# files) under .bench_build in the checkout. Run from anywhere:
#
#   bash benchmark/run.sh --workload serve_write --seed 7 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local TMPDIR="$build/tmp"
bin="$build/geebench"
cd "$root"
go build -o "$bin" ./benchmark
exec "$bin" "$@"
