#!/usr/bin/env bash
# Overlap-aware reuse benchmark harness. Two workloads:
#
#   BenchmarkOverlappingViews      — four overlapping crop views inside one
#                                    sample, superset reuse on ("reuse") vs
#                                    off ("off"); gate >= 1.5x.
#   BenchmarkBatchOverlappingViews — four single-chain samples per batch
#                                    whose crops overlap, batch-scoped
#                                    planning ("batch") vs per-sample-only
#                                    planning ("sample"); gate >= 2x.
#
# The arms differ only in the reuse plan each benchmark hands the
# materializer. Writes BENCH_reuse.json at the repo root with ns/op, B/op,
# allocs/op per arm plus the speedups. Both rewrites are exact (every
# batch equals a naive reference materializer's, asserted by
# internal/core/oracle_test.go), so the speedups are free accuracy-wise;
# the gates below fail the run if either ever regresses.
#
# Usage: scripts/bench_reuse.sh [benchtime]   (default 200x)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-200x}"
OUT="BENCH_reuse.json"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

echo "== go test -bench (overlapping views + batch overlap, -benchtime=$BENCHTIME)"
go test -run=xxx -bench='BenchmarkOverlappingViews|BenchmarkBatchOverlappingViews' -benchmem -benchtime="$BENCHTIME" ./internal/core/ | tee "$TMP"

awk '
/^BenchmarkOverlappingViews\/reuse/       { rns = $3; rb = $5; ra = $7 }
/^BenchmarkOverlappingViews\/off/         { ons = $3; ob = $5; oa = $7 }
/^BenchmarkBatchOverlappingViews\/batch/  { bns = $3; bb = $5; ba = $7 }
/^BenchmarkBatchOverlappingViews\/sample/ { sns = $3; sb = $5; sa = $7 }
END {
  if (rns == "" || ons == "" || bns == "" || sns == "") { print "bench_reuse: missing benchmark output" > "/dev/stderr"; exit 1 }
  speedup = ons / rns
  xspeedup = sns / bns
  printf "{\n"
  printf "  \"benchmark\": \"BenchmarkOverlappingViews\",\n"
  printf "  \"reuse\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", rns, rb, ra
  printf "  \"off\":   {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", ons, ob, oa
  printf "  \"speedup\": %.2f,\n", speedup
  printf "  \"batch_overlap_benchmark\": \"BenchmarkBatchOverlappingViews\",\n"
  printf "  \"batch\":  {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", bns, bb, ba
  printf "  \"sample\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", sns, sb, sa
  printf "  \"batch_speedup\": %.2f\n", xspeedup
  printf "}\n"
  if (speedup < 1.5) { printf "bench_reuse: superset speedup %.2fx below the 1.5x floor\n", speedup > "/dev/stderr"; exit 1 }
  if (xspeedup < 2.0) { printf "bench_reuse: cross-sample speedup %.2fx below the 2x floor\n", xspeedup > "/dev/stderr"; exit 1 }
}
' "$TMP" > "$OUT"

echo "wrote $OUT"
cat "$OUT"
