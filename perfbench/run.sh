#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload full-fig6 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
