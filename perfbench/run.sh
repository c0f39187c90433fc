#!/usr/bin/env bash
# Builds smalld and the benchmark from the source tree, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload session_eval --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own state
# (under XDG_CONFIG_HOME) stay under .bench_build in the current
# directory, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local

go build -o "$out/smalld" ./cmd/smalld
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -smalld "$out/smalld" "$@"
