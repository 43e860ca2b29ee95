#!/usr/bin/env bash
# Builds the dynschedd benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload spatial --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary,
# span files) stays under .bench_build/ in the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
