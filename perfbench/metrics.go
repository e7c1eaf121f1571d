package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the service sees. Every workload
// reports every one of them with the same meaning:
//   - setup_s: network, oracle, stream and server start (WAL startup
//     checkpoint included), median of setupRuns.
//   - heap_mb: the largest live heap measured after a forced GC at the end
//     of a server run, server still up.
//   - decisions_per_s: decisions answered (HTTP 200) per second under the
//     heaviest load the workload offers: the closed loop's throughput in
//     the lockstep workloads (replays combined call by call, see
//     lowerMedianAcross), the goodput of the top rung in the ladder.
//   - decision_ms_p50: client-observed request latency — in the ladder at
//     its lowest rate, timed from each request's due time. The tail
//     (decision_ms_p99, by the rule of tailPercentile) is printed in the
//     report but not gated: on a shared VM it moves with the host's steal
//     time far more than the bound allows (README.md).
//   - served_rate / unified_cost: the paper's quality metrics (Eq. 1) from
//     /v1/stats, over the whole replay in lockstep (bit-identical to the
//     offline engine) and over the lowest rung in the ladder.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"decisions_per_s", "1/s", "higher"},
	{"decision_ms_p50", "ms", "lower"},
	{"served_rate", "ratio", "higher"},
	{"unified_cost", "cost", "lower"},
}

// perLayer are the traced run's per-layer metrics; README.md maps each to
// the end-to-end metric it should move and on which workload.
var perLayer = []metricDef{
	{"serve.http_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.flush_ms_p50", "ms", "lower"},
	{"serve.flush_ms_p99", "ms", "lower"},
	{"serve.flush_other_ms_p50", "ms", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.table_hit_frac", "ratio", "higher"},
	{"serve.table_hits_per_prefetch", "count", "higher"},
	{"serve.shed_frac", "ratio", "lower"},
	{"serve.late_admission_frac", "ratio", "lower"},
	{"wal.syncs_per_decision", "count", "lower"},
	{"wal.sync_ms_p50", "ms", "lower"},
	{"wal.sync_ms_p99", "ms", "lower"},
	{"wal.bytes_per_decision", "bytes", "lower"},
	{"core.plan_us_p50", "us", "lower"},
	{"core.plan_us_p99", "us", "lower"},
	{"core.candidates_mean", "count", "lower"},
	{"core.feasible_mean", "count", "lower"},
	{"core.evaluated_mean", "count", "lower"},
	{"core.dp_cells_per_decision", "count", "lower"},
	{"core.pruned_frac", "ratio", "higher"},
	{"core.reject_bound_frac", "ratio", "higher"},
	{"core.self_us_mean", "us", "lower"},
	{"dispatch.parallel_frac", "ratio", "higher"},
	{"dispatch.useful_frac", "ratio", "higher"},
	{"shortest.queries_per_decision", "count", "lower"},
	{"shortest.query_us_mean", "us", "lower"},
	{"shortest.cache_hit_frac", "ratio", "higher"},
	{"shortest.oracle_share", "ratio", "lower"},
	{"shortest.customize_ms_p50", "ms", "lower"},
	{"sim.engine_decide_us_mean", "us", "lower"},
	{"sim.advance_us_per_decision", "us", "lower"},
	{"sim.legs_per_decision", "count", "lower"},
	{"sim.leg_us_mean", "us", "lower"},
	{"sim.repair_ms_p50", "ms", "lower"},
	{"sim.infeasible_stops", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the result. With correct false no metric is
// reported; otherwise values must hold exactly the names of defs.
func resultLine(correct bool, attempted, failed int, defs []metricDef, values map[string]float64) (string, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if correct {
		if len(values) != len(defs) {
			return "", fmt.Errorf("have %d metrics, want %d", len(values), len(defs))
		}
		for _, d := range defs {
			v, ok := values[d.Name]
			if !ok {
				return "", fmt.Errorf("metric %s not measured", d.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("metric %s = %v", d.Name, v)
			}
			r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(r)
	return string(b), err
}

// formatMetrics renders values by name with their units.
func formatMetrics(defs []metricDef, values map[string]float64) string {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("  %-32s %14.6g %s\n", n, values[n], units[n])
	}
	return out
}
