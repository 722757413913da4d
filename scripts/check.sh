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

echo "== go test -race ./..."
go test -race ./...

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

echo "== overlap-aware reuse smoke (superset hits + byte-identical output)"
# The four-view overlapping-crop quickstart must produce byte-identical
# batches with superset reuse on and off, and the reuse path must
# actually fire (nonzero superset hits) — see DESIGN.md §9.
REUSE_ON="$(go run ./examples/quickstart -overlap | grep -E '^(batch digest|reuse):')"
REUSE_OFF="$(go run ./examples/quickstart -overlap -reuse=false | grep -E '^(batch digest|reuse):')"
DIG_ON="$(grep '^batch digest:' <<<"$REUSE_ON")"
DIG_OFF="$(grep '^batch digest:' <<<"$REUSE_OFF")"
if [ -z "$DIG_ON" ] || [ "$DIG_ON" != "$DIG_OFF" ]; then
	echo "reuse smoke: output digests differ between -reuse=true and -reuse=false" >&2
	echo "  on:  $DIG_ON" >&2
	echo "  off: $DIG_OFF" >&2
	exit 1
fi
if ! grep '^reuse:' <<<"$REUSE_ON" | grep -q 'superset_hits=[1-9]'; then
	echo "reuse smoke: no superset hits on the overlapping-view task" >&2
	grep '^reuse:' <<<"$REUSE_ON" >&2
	exit 1
fi
echo "reuse smoke: identical digests; $(grep '^reuse:' <<<"$REUSE_ON")"

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
