#!/usr/bin/env bash
# Builds svfbench and the svfd daemon from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash cmd/svfbench/run.sh --workload svfd-fresh --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, daemon
# journals, scratch journals) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd cmd/svfbench && go build -o "$build/bin/svfbench" .) >&2
go build -o "$build/bin/svfd" ./cmd/svfd >&2

exec "$build/bin/svfbench" -svfd "$build/bin/svfd" -work "$build/tmp" "$@"
