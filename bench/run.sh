#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload case-random --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the module cache
# and the binary all live under .bench_build/, so the benchmark writes
# nothing outside the checkout, and the toolchain is never downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$build/asyncg-bench" .
exec "$build/asyncg-bench" "$@"
