#!/usr/bin/env bash
# Builds cmd/assayd and the benchmark driver from this checkout, then runs
# the driver with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload gather-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cd "$root"
go build -o "$build/assayd" ./cmd/assayd
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -assayd "$build/assayd" -work "$build" "$@"
