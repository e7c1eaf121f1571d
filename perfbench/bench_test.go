package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the function must sort
		}
		return xs
	}
	cases := []struct {
		n        int
		p        float64
		value    float64
		quantile float64
	}{
		// 1000 samples: p99 is the 990th value, 10 samples beyond it.
		{1000, 0.99, 990, 0.99},
		// 500 samples: p99 would leave 5 beyond; the highest quantile with
		// 10 beyond is the 490th value.
		{500, 0.99, 490, 0.98},
		// 200 samples, median: 100 beyond, reported as asked.
		{200, 0.5, 100, 0.5},
		// 15 samples: only the 5th value has 10 beyond, but that is below
		// the median, so the median is reported.
		{15, 0.99, 8, 8.0 / 15},
		{1, 0.99, 1, 1},
	}
	for _, c := range cases {
		v, q := tailPercentile(seq(c.n), c.p)
		if v != c.value || math.Abs(q-c.quantile) > 1e-12 {
			t.Errorf("n=%d p=%v: got value %v quantile %v, want %v %v", c.n, c.p, v, q, c.value, c.quantile)
		}
		if c.n >= 21 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minTail {
				t.Errorf("n=%d p=%v: only %d samples beyond the reported value", c.n, c.p, beyond)
			}
		}
	}
	if v, q := tailPercentile(nil, 0.99); v != 0 || q != 0 {
		t.Errorf("empty: got %v %v", v, q)
	}
}

func TestSLORateCountsRefusalsAsMisses(t *testing.T) {
	rungs := []rung{
		{rate: 100, attempted: 1000, onTime: 1000},
		// 995 answered on time, 5 refused with 429: 99.5% on time.
		{rate: 300, attempted: 1000, onTime: 995},
		// Every answer on time, but 20 of 1000 were refused: 98%.
		{rate: 1000, attempted: 1000, onTime: 980},
		{rate: 3000, attempted: 1000, onTime: 10},
	}
	if got := sloRate(rungs, 0.99); got != 300 {
		t.Fatalf("sloRate = %v, want 300", got)
	}
	if got := sloRate(rungs[2:], 0.99); got != 0 {
		t.Fatalf("no rung meets the SLO: sloRate = %v, want 0", got)
	}
	// A rung below a failing one still counts: the rule is the highest
	// rate that meets the limit, not the first failure.
	if got := sloRate([]rung{{100, 10, 10}, {300, 10, 0}, {1000, 10, 10}}, 0.99); got != 1000 {
		t.Fatalf("sloRate = %v, want 1000", got)
	}
}

func TestLowerMedianAcross(t *testing.T) {
	runs := [][]float64{
		{1, 9, 3, 4},
		{2, 2, 8, 4},
		{3, 1, 2, 4, 7}, // longer than the others: cut to their length
	}
	want := []float64{2, 2, 3, 4}
	if got := lowerMedianAcross(runs); !slices.Equal(got, want) {
		t.Fatalf("three runs: got %v, want %v", got, want)
	}
	// Of two runs the lower value, step by step: a burst that slowed
	// step 1 of the first run and step 2 of the second leaves no trace.
	two := [][]float64{{5, 50, 5}, {5, 5, 70}}
	if got := lowerMedianAcross(two); !slices.Equal(got, []float64{5, 5, 5}) {
		t.Fatalf("two runs: got %v", got)
	}
	// Of four, the lower of the two middle values.
	four := [][]float64{{1}, {4}, {2}, {3}}
	if got := lowerMedianAcross(four); !slices.Equal(got, []float64{2}) {
		t.Fatalf("four runs: got %v", got)
	}
	if got := lowerMedianAcross(nil); got != nil {
		t.Fatalf("no runs: got %v", got)
	}
}

func TestStepsSumToWall(t *testing.T) {
	start := time.Unix(100, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	s := &served{start: start, calls: []call{
		{req: 1, sent: at(0), done: at(4)},
		{req: -1, sent: at(5), done: at(7)}, // traffic update
		{req: 2, sent: at(8), done: at(20)},
	}}
	steps := s.stepsMs()
	if !slices.Equal(steps, []float64{4, 3, 13}) {
		t.Fatalf("steps %v, want [4 3 13]", steps)
	}
	if sum(steps) != 20 {
		t.Fatalf("steps sum to %v ms, want the 20 ms from first send to last answer", sum(steps))
	}
}

func TestLatencyFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	// The generator ran 30 ms late and the server took 5 ms: the request
	// is charged 35 ms, not 5.
	sent := due.Add(30 * time.Millisecond)
	done := sent.Add(5 * time.Millisecond)
	if got := latencyMs(due, done); got != 35 {
		t.Fatalf("latency = %v ms, want 35", got)
	}
}

// Metric names and units as BENCHMARK.json allows them.
var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricCatalogue checks every metric name and unit against the
// pattern BENCHMARK.json allows and that BENCHMARK.json lists exactly the
// metrics the benchmark emits, in the same order.
func TestMetricCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or duplicate metric name %q", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: bad direction %q", d.Name, d.Better)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "x/y", string(make([]byte, 65))} {
		if metricNameRE.MatchString(bad) {
			t.Errorf("name pattern accepts %q", bad)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, benchmark emits %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json has %d workloads, want at least 2", len(bj.Workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the benchmark", w.Name)
		}
	}
}

// small shrinks a workload to a few hundred vertices and requests so the
// whole pipeline — generation, serving, every check, tracing — runs in
// seconds.
func small(sp spec) spec {
	sp.scale = 0.03
	sp.dayRequests = 800
	sp.workers = 40
	if sp.requests > 0 {
		sp.requests = 120
	}
	if sp.trafficEvery > 0 {
		sp.trafficEvery = 300
	}
	if len(sp.ladder) > 0 {
		sp.ladder = []ladderRung{{200, 60}, {2000, 120}}
	}
	return sp
}

// TestSeedsPassChecks runs every workload, shrunk, on two seeds, untraced
// and traced: every correctness check must pass and every metric must be
// reported.
func TestSeedsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("serves every workload")
	}
	for name, sp := range specs {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				sp := small(sp)
				sp.name = name
				b := &bench{sp: sp, seed: seed, budget: time.Millisecond, traced: traced, workdir: t.TempDir()}
				if traced {
					b.spans = &spanLog{}
				}
				line, err := b.run()
				if err != nil {
					t.Fatalf("%s seed %d traced %v: %v", name, seed, traced, err)
				}
				var r result
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("%s seed %d traced %v: %s\n%s", name, seed, traced, line, b.report.String())
				}
				want := len(endToEnd)
				if traced {
					want = len(perLayer)
				}
				if len(r.Metrics) != want {
					t.Fatalf("%s seed %d: %d metrics, want %d", name, seed, len(r.Metrics), want)
				}
			}
		}
	}
}
