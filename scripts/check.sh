#!/usr/bin/env bash
# Tier-1 gate: vet, build, and race-test the whole tree. Run as
# `make check` or directly. Every PR must leave this green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== doc + gofmt check"
./scripts/doccheck.sh

echo "== go build ./..."
go build ./...

echo "== go test -race (every package but bench)"
# bench's speed meter calibrates against uninstrumented deflate timing,
# which the race detector slows ~20x; bench runs without -race below.
go test -race $(go list ./... | grep -v '^sand/bench$')

echo "== go test ./bench"
go test ./bench

echo "== storage race soak (promotion singleflight, 20 runs)"
go test -race -count=20 ./internal/storage

echo "== hot-path benchmark smoke (1 iteration)"
go test -run=xxx -bench='BenchmarkMaterializeSample$' -benchtime=1x ./internal/core/ >/dev/null
go test -run=xxx -bench='BenchmarkCodecRandomAccess$' -benchtime=1x ./internal/codec/ >/dev/null
go test -run=xxx -bench='BenchmarkAugmentPipeline$' -benchtime=1x ./internal/augment/ >/dev/null
go test -run=xxx -bench='BenchmarkStoreRoundTrip$' -benchtime=1x ./internal/storage/ >/dev/null
go test -run=xxx -bench='BenchmarkStoreContention' -benchtime=1x ./internal/storage/ >/dev/null

echo "== quickstart shard smoke (1 shard vs 16 shards)"
go run ./examples/quickstart -store-shards 1 >/dev/null
go run ./examples/quickstart -store-shards 16 >/dev/null

echo "== overlap-aware reuse smoke (superset hits)"
# The four-view overlapping-crop quickstart must take the superset path
# (nonzero superset hits) — see DESIGN.md §9. Byte identity to a naive
# reference materializer is internal/core/oracle_test.go's job.
REUSE="$(go run ./examples/quickstart -overlap | grep '^reuse:')"
if ! grep -q 'superset_hits=[1-9]' <<<"$REUSE"; then
	echo "reuse smoke: no superset hits on the overlapping-view task" >&2
	echo "$REUSE" >&2
	exit 1
fi
echo "reuse smoke: $REUSE"

echo "== zero-copy dataplane smoke (8 shards, 1 MiB budget)"
# Tight budget forces eviction passes to run while pinned batches are in
# flight; the example fails if any remote byte differs from local or if
# no response went out by reference.
go run ./examples/remote -store-shards 8 -mem-budget-mb 1 >/dev/null

echo "== closed-loop scheduling smoke (admission control + adaptive read-ahead gates)"
# Runs the sched experiment end to end: admission control must engage
# under premat overload and beat the static baseline >= 2x on demand
# p99, cost free when uncontended, and adaptive read-ahead must match
# the fixed depth while bounding a stalled client — see DESIGN.md §11.
./scripts/bench_sched.sh >/dev/null

echo "== trace smoke"
./scripts/trace_smoke.sh

echo "== fleet smoke (3 nodes, drain + kill mid-epoch)"
./scripts/fleet_smoke.sh

echo "== scenario corpus smoke (validate + run twice + determinism diff)"
./scripts/scenario_smoke.sh

echo "check: all green"
