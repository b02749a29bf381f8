#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload lig-local --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# span files stay under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C "$root/e2ebench" -o "$build/e2ebench-bin" . >&2
exec "$build/e2ebench-bin" -out "$build/e2ebench" "$@"
