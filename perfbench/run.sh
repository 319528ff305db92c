#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload overload-replay --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the runs' scratch files all live in
# the checkout's build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
