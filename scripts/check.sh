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

echo "== storage race soak (concurrent promotions, pins and spills, 20 runs)"
go test -race -count=20 ./internal/storage

echo "== batch-flight race soak (promotion, premat heap order, SJF order and EDF<->SJF switches, one build per batch, dispatch rule, shared GOP-cache frames as decoder references, first-wins superset publication; 20 runs)"
go test -race -count=20 -run 'Promote|PrematOrder|SJF|PolicySwitches|Flight|Dispatch|GOPCache|SupersetSerial' ./internal/sched ./internal/core

echo "== premat heap fuzz against a slow reference queue (10s)"
go test -run=xxx -fuzz=FuzzPrematOrder -fuzztime=10s ./internal/sched/

echo "== frame decoder fuzz (10s)"
go test -run=xxx -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/frame/

echo "== frame encoder fuzz against compress/zlib and inflate.Zlib (10s)"
# An exec encodes with both stdlib references and inflates twice, so it
# takes milliseconds: cap input minimization at 1s to leave the 10s for
# fuzzing.
go test -run=xxx -fuzz=FuzzEncodeFrame -fuzztime=10s -fuzzminimizetime=1s ./internal/frame/

echo "== batch decoder fuzz (10s)"
go test -run=xxx -fuzz=FuzzDecodeBatch -fuzztime=10s ./internal/core/

echo "== GOP-cache request-order fuzz against the reference decode (10s)"
go test -run=xxx -fuzz=FuzzGOPRequests -fuzztime=10s ./internal/core/

echo "== inflate differential fuzz against compress/flate and compress/zlib (10s)"
go test -run=xxx -fuzz=FuzzInflate -fuzztime=10s ./internal/inflate/

echo "== Huffman table build fuzz against the bit-by-bit canonical walk (10s)"
go test -run=xxx -fuzz=FuzzHuffmanTable -fuzztime=10s ./internal/inflate/

echo "== TVC container parse + decode fuzz (10s)"
go test -run=xxx -fuzz=FuzzParseVideo -fuzztime=10s ./internal/codec/

echo "== disk-tier recovery fuzz over garbled .obj/.objz spills (10s)"
go test -run=xxx -fuzz=FuzzRecover -fuzztime=10s ./internal/storage/

echo "== separable bilinear resize kernel fuzz against the per-pixel reference (10s)"
go test -run=xxx -fuzz=FuzzResizeWindow -fuzztime=10s ./internal/augment/

echo "== task config parser fuzz (10s)"
go test -run=xxx -fuzz=FuzzLoadTask -fuzztime=10s ./internal/config/

echo "== wire request decoder fuzz (10s)"
go test -run=xxx -fuzz=FuzzDecodeRequest -fuzztime=10s ./internal/viewserver/

echo "== wire response decoder fuzz, segmented against contiguous (10s)"
go test -run=xxx -fuzz=FuzzReadResponse -fuzztime=10s ./internal/viewserver/

echo "== scenario YAML parser fuzz (10s)"
go test -run=xxx -fuzz=FuzzParse -fuzztime=10s ./internal/scenario/

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

echo "== zero-copy dataplane smoke (1 MiB budget)"
# Tight budget forces eviction passes to run while pinned batches are in
# flight; the example fails if any remote byte differs from local or if
# no response went out by reference.
go run ./examples/remote -mem-budget-mb 1 >/dev/null

echo "== trace smoke"
./scripts/trace_smoke.sh

echo "== fleet smoke (3 nodes, drain + kill mid-epoch)"
./scripts/fleet_smoke.sh

echo "== scenario corpus smoke (validate + run twice + determinism diff)"
./scripts/scenario_smoke.sh

echo "check: all green"
