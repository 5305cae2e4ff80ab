#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash bench/run.sh -workload fig7-sweep -seed 1 [-seconds 10] [-trace 0|1]
#   bash bench/run.sh -workload all -seed 1
#
# Everything the build writes (Go build cache, binary, trace output) stays
# in .bench_build/ under the repository root; no network is used.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/sdaperf" .
exec "$out/sdaperf" "$@"
