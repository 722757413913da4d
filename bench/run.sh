#!/usr/bin/env bash
# bench/run.sh — build the harness and run it; the one command.
#
#   bench/run.sh [-runs N] [-seed S] [-workload W] [-quick]    the suite: N untraced runs and one
#                                                              traced run per workload, the metric
#                                                              table, bench/out/results.json
#   bench/run.sh one --workload W --seed N --seconds S --trace 0|1
#                                                              one run; last line is the result JSON
#   bench/run.sh compare A.json B.json                         apply BENCHMARK.json's bounds
#
# Everything the build and the runs write stays below bench/: .build/
# (binary, Go build cache, temp files), .cache/ (corpora), out/ (results,
# Chrome traces).
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the program there is nothing to measure: say so before any tool runs.
if [ ! -f go.mod ] || [ ! -d internal/core ]; then
  echo "bench/run.sh: no go.mod or internal/core in $PWD: the SAND module is not here" >&2
  exit 1
fi
build=$PWD/bench/.build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # Go's telemetry and env files
export GOTOOLCHAIN=local GOPROXY=off # never fetch: the module has no dependencies
# In a fresh config dir the go command takes the telemetry upload token and
# starts a detached "go" sidecar that outlives it. Mode off: no sidecar, no
# counter files, so nothing the build starts is left running.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -buildvcs=false -o "$build/sandbench" ./bench
exec "$build/sandbench" "$@"
