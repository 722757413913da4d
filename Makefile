# Tier-1 verification gate: vet + build + race-clean tests.
check:
	./scripts/check.sh

# Fast iteration: build + tests without the race detector.
test:
	go build ./...
	go test ./...

# Every fuzz target: wire request, response and cursor, premat-heap,
# frame-decoder, frame-encoder, batch-, GOP-cache request-order, inflate,
# Huffman-table, TVC-container, disk-tier recovery, resize-kernel,
# task-config and scenario-YAML fuzzing (bounded; extend -fuzztime for
# longer campaigns).
fuzz:
	go test -run=xxx -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/viewserver/
	go test -run=xxx -fuzz=FuzzReadResponse -fuzztime=30s ./internal/viewserver/
	go test -run=xxx -fuzz=FuzzCursor -fuzztime=30s ./internal/viewserver/
	go test -run=xxx -fuzz=FuzzPrematOrder -fuzztime=30s ./internal/sched/
	go test -run=xxx -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/frame/
	go test -run=xxx -fuzz=FuzzEncodeFrame -fuzztime=30s -fuzzminimizetime=1s ./internal/frame/
	go test -run=xxx -fuzz=FuzzDecodeBatch -fuzztime=30s ./internal/core/
	go test -run=xxx -fuzz=FuzzGOPRequests -fuzztime=30s ./internal/core/
	go test -run=xxx -fuzz=FuzzInflate -fuzztime=30s ./internal/inflate/
	go test -run=xxx -fuzz=FuzzHuffmanTable -fuzztime=30s ./internal/inflate/
	go test -run=xxx -fuzz=FuzzParseVideo -fuzztime=30s ./internal/codec/
	go test -run=xxx -fuzz=FuzzRecover -fuzztime=30s ./internal/storage/
	go test -run=xxx -fuzz=FuzzResizeWindow -fuzztime=30s ./internal/augment/
	go test -run=xxx -fuzz=FuzzLoadTask -fuzztime=30s ./internal/config/
	go test -run=xxx -fuzz=FuzzParse -fuzztime=30s ./internal/scenario/

# The end-to-end epoch benchmark with per-layer attribution (see
# bench/README.md).
bench:
	bash bench/run.sh

# One traced quickstart run, validated (see OBSERVABILITY.md).
trace-smoke:
	./scripts/trace_smoke.sh

# Boot a 3-node fleet on loopback, drain and kill a node mid-epoch,
# assert completion + per-node /metrics labels (see DESIGN.md "Fleet").
fleet-smoke:
	./scripts/fleet_smoke.sh

# Run the scenario corpus twice and fail unless the JSON reports are
# byte-identical across runs (see SCENARIOS.md).
scenarios:
	./scripts/scenario_smoke.sh

.PHONY: check test fuzz bench trace-smoke fleet-smoke scenarios
