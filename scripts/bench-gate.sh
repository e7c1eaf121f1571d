#!/usr/bin/env bash
# bench-gate.sh — SLO regression gate: rerun the headline benchmarks and
# fail if any benchmark shared with the newest run in the checked-in
# trajectory artifact slowed down by more than 25% ns/op
# (cmd/benchjson -gate).
#
#   scripts/bench-gate.sh                  # gate vs the newest BENCH_PR*.json
#   scripts/bench-gate.sh -t 1x            # quick pass (noisy; CI exercises the plumbing)
#   scripts/bench-gate.sh -f BENCH_PR9.json -r 1.5   # explicit baseline, +50% threshold
#
# The gate compares like with like: when the baseline was recorded on a
# different CPU model the comparison is skipped with a warning (ns/op
# across machines measures the hardware, not the patch), so the gate is
# strict on the box that produced the artifact and advisory elsewhere.
# On the same machine, per-benchmark ratios are divided by the geomean
# ratio across the shared set before the threshold applies: shared-box
# drift slows everything uniformly, a patch regression slows one
# benchmark relative to its peers.
#
# BenchmarkSaturation is excluded: its ns/op is the open-loop pacing
# schedule (1/rate plus drain), not code speed — its regression signal
# lives in the goodput-rps/shed-rate metrics, not in wall time per op.
# BenchmarkBatchPlanning is excluded for the same reason: one op is a
# deliberate full-stream replay whose signal is dist-queries/op, which
# the gate does not compare.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH='BenchmarkPruningAblation|BenchmarkParallelPlanning|BenchmarkInsertionScaling|BenchmarkOracleAblation|BenchmarkDecisionLowerBound|BenchmarkDistUnderRebuild|BenchmarkWALCommit|BenchmarkPlanWithObserver|BenchmarkCCHCustomize'
BENCHTIME=100x
BASELINE=""
THRESHOLD=1.25
# The whole suite runs COUNT times and the gate takes the per-benchmark
# minimum ns/op: noise (preemption, fsync latency, cache pollution) only
# ever adds time, so the fastest repetition is the honest cost estimate.
# Deliberately NOT `go test -count`: that runs a benchmark's repetitions
# back-to-back within milliseconds, inside the same noise burst — sweeps
# space them a full suite apart so the minimum sees independent weather.
COUNT=3

while getopts "b:t:c:f:r:h" opt; do
  case $opt in
    b) BENCH=$OPTARG ;;
    t) BENCHTIME=$OPTARG ;;
    c) COUNT=$OPTARG ;;
    f) BASELINE=$OPTARG ;;
    r) THRESHOLD=$OPTARG ;;
    h) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) exit 2 ;;
  esac
done

if [ -z "$BASELINE" ]; then
  # Newest checked-in trajectory by PR number.
  BASELINE=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n 1)
  if [ -z "$BASELINE" ]; then
    echo "bench-gate: no BENCH_PR*.json baseline found" >&2
    exit 1
  fi
fi

echo "bench-gate: running '$BENCH' at -benchtime $BENCHTIME, $COUNT sweep(s), against $BASELINE ..." >&2
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT
for _ in $(seq "$COUNT"); do
  go test -run xxx -bench "$BENCH" -benchtime "$BENCHTIME" . >> "$RAW"
done
go run ./cmd/benchjson -gate -baseline "$BASELINE" -threshold "$THRESHOLD" < "$RAW"
