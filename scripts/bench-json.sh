#!/usr/bin/env bash
# bench-json.sh — run the headline benchmarks and append one labeled run
# to a JSON benchmark-trajectory artifact (see cmd/benchjson).
#
#   scripts/bench-json.sh                         # 100x run -> BENCH_PR10.json, label = short commit
#   scripts/bench-json.sh -t 1x -o /tmp/b.json    # CI smoke: one iteration per benchmark
#   scripts/bench-json.sh -l post-PR4             # explicit label
#   scripts/bench-json.sh -b 'BenchmarkPruningAblation'  # subset
#
# The headline set covers the perf surfaces this repo tracks: the Lemma 8
# pruning ablation (dist-queries), parallel planning throughput
# (speedup-vs-serial), the §4 insertion-operator scaling, the oracle
# ablation, the decision-phase lower bound, the epoch-aware oracle
# front under traffic (query latency per tier plus the epoch-advance cost
# of a full CH rebuild versus a CCH customization), the WAL group
# commit (fsync amortization across admission-batch sizes), the
# flight-recorder observability tax (plan path with observer on vs off —
# must stay within noise at 0 allocs/op), the open-loop saturation
# sweep (goodput/shed-rate/p99 at offered loads straddling the service's
# throughput knee, under a bounded admission queue — DESIGN.md §15) and
# the level-parallel CCH customization sweep.
# -benchmem is always on so allocs/op regressions are recorded in the
# artifact.
#
# BenchmarkBatchPlanning replays the tail of a Chengdu-like stream per
# iteration (a whole replay per op by design), so it runs in a separate heavy pass
# at HEAVYTIME iterations rather than the headline BENCHTIME.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH='BenchmarkPruningAblation|BenchmarkParallelPlanning|BenchmarkInsertionScaling|BenchmarkOracleAblation|BenchmarkDecisionLowerBound|BenchmarkDistUnderRebuild|BenchmarkWALCommit|BenchmarkPlanWithObserver|BenchmarkSaturation|BenchmarkCCHCustomize'
HEAVY='BenchmarkBatchPlanning'
HEAVYTIME=3x
BENCHTIME=100x
OUT=BENCH_PR10.json
LABEL=""
# Repetitions are recorded verbatim in the artifact; the bench gate takes
# the per-benchmark minimum, so a -c 3 baseline is judged by the same
# min-of-N discipline as the candidate run it will later gate. Sweeps,
# not `go test -count`: count repeats a benchmark back-to-back inside
# the same noise burst; sweeps space repetitions a full suite apart.
COUNT=3

while getopts "b:t:o:l:c:h" opt; do
  case $opt in
    b) BENCH=$OPTARG ;;
    t) BENCHTIME=$OPTARG ;;
    o) OUT=$OPTARG ;;
    l) LABEL=$OPTARG ;;
    c) COUNT=$OPTARG ;;
    h) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) exit 2 ;;
  esac
done

if [ -z "$LABEL" ]; then
  LABEL=$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "bench-json: running '$BENCH' at -benchtime $BENCHTIME, $COUNT sweep(s) ..." >&2
for _ in $(seq "$COUNT"); do
  go test -run xxx -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" . | tee -a "$RAW" >&2
  go test -run xxx -bench "$HEAVY" -benchmem -benchtime "$HEAVYTIME" . | tee -a "$RAW" >&2
done

go run ./cmd/benchjson -label "$LABEL" -benchtime "$BENCHTIME" -out "$OUT" < "$RAW"
echo "bench-json: appended run '$LABEL' to $OUT" >&2
