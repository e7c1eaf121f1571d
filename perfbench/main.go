// Command perfbench is the end-to-end serving benchmark: it drives an
// in-process serve.Server behind a real loopback listener (WAL on, in a
// directory of its own) with seeded workloads, checks every output against
// the offline engine and the paper's invariants, and prints the metrics
// BENCHMARK.json names. See README.md for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
//
//	perfbench --workload lockstep-hub --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result. Run it through
// run.sh, which builds it from the checkout's source.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"repro/internal/roadnet"
	"repro/internal/serve"
)

// specs are the workloads. Names are fixed; BENCHMARK.json records why
// each was chosen.
var specs = map[string]spec{
	// The BenchmarkBatchPlanning fleet: one client on one keep-alive
	// connection, each POST flushed alone and fsynced alone. WAL fsync,
	// HTTP/JSON and the planner's per-decision path dominate; the batch
	// prefetch tables stay one request small and hub queries are cheap.
	"lockstep-hub": {
		scale: 0.25, workers: 600, dayRequests: 2500, oracle: "hub",
		requests: 1200, pool: 1,
	},
	// Oracle writes beside reads: every congestion event customizes the
	// CCH, flushes the distance caches and repairs routes, and CCH point
	// queries plus the parallel dispatcher dominate planning.
	"lockstep-cch-traffic": {
		scale: 0.8, oracle: "cch", requests: 600, pool: 2, trafficEvery: 120,
	},
	// The lockstep-hub stream replayed open loop: big batches make the
	// batch prefetch, queue wait, shedding and WAL group commit dominate.
	// BENCHMARK.json does not list it: at 100 req/s the server sits at its
	// knee, so its tail latency moves several-fold between identical runs
	// (README.md). Run it by name.
	"open-hub-ladder": {
		scale: 0.25, workers: 600, dayRequests: 2500, oracle: "hub",
		ladder: []ladderRung{{100, 1200}, {300, 600}, {1000, 1200}, {3000, 2400}},
	},
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// minRuns is the fewest untraced server runs a lockstep measurement
// makes, whatever the budget: combining replays call by call needs more
// than one. A replay of lockstep-cch-traffic takes about half a minute, so
// it makes two; a shorter stream would leave its served rate and its
// latency median at the mercy of which requests the seed drew.
const minRuns = 2

// maxUnattributed is how much of the client-observed latency along the
// blocking path the named stages may leave unexplained.
const maxUnattributed = 0.05

// timeLimit stops a run that would overrun its time budget; it exits
// without a result.
const timeLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: lockstep-hub|lockstep-cch-traffic|open-hub-ladder")
	seed := flag.Int64("seed", 1, "workload seed: stream, traffic schedule and arrival schedule derive from it")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for WAL directories and span files")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload lockstep-hub|lockstep-cch-traffic|open-hub-ladder, --trace 0|1, --seconds >= 1")
		os.Exit(2)
	}
	sp.name = *name
	time.AfterFunc(timeLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", timeLimit)
		os.Exit(3)
	})
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{sp: sp, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, workdir: *workdir}
	if b.traced {
		b.spans = &spanLog{}
	}
	line, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(b.report.String())
	fmt.Println(line)
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seed    int64
	budget  time.Duration
	traced  bool
	workdir string

	gate      gate
	attempted int
	failed    int
	values    map[string]float64
	spans     *spanLog
	report    strings.Builder
}

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(&b.report, format+"\n", args...) }

func (b *bench) run() (string, error) {
	b.values = make(map[string]float64)
	b.logf("workload %s seed %d, %s, trace %v", b.sp.name, b.seed, b.budget, b.traced)
	var err error
	if len(b.sp.ladder) > 0 {
		err = b.runLadder()
	} else {
		err = b.runLockstep()
	}
	if err != nil {
		return "", err
	}
	for _, f := range b.gate.failures {
		b.logf("CHECK FAILED: %s", f)
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer
		if err := b.writeSpans(); err != nil {
			return "", err
		}
	}
	if b.gate.ok() {
		b.logf("checks passed; metrics:")
		b.report.WriteString(formatMetrics(defs, b.values))
	}
	return resultLine(b.gate.ok(), b.attempted, b.failed, defs, b.values)
}

// setup builds the inputs and starts (then stops) a server over them,
// setupRuns times untraced, once traced; it returns the set-up times and
// the last inputs built.
func (b *bench) setup(n int, cfg serve.Config, h2c bool) ([]float64, *env, error) {
	runs := setupRuns
	if b.traced {
		runs = 1
	}
	var times []float64
	var e *env
	for i := 0; i < runs; i++ {
		start := time.Now()
		var err error
		if err = b.spans.around("setup.inputs", func() error {
			e, err = buildEnv(b.sp, b.seed, n)
			return err
		}); err != nil {
			return nil, nil, err
		}
		var ls *liveServer
		if err := b.spans.around("setup.server", func() error {
			ls, err = startServer(b.workdir, e, cfg, h2c)
			return err
		}); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if err := ls.stop(); err != nil {
			return nil, nil, err
		}
	}
	b.logf("setup: %d run(s), %s", len(times), fmtList(times, "%.3fs"))
	return times, e, nil
}

func (b *bench) runLockstep() error {
	sp := b.sp
	setups, e, err := b.setup(sp.requests, serve.Config{BatchSize: 1, Pool: sp.pool}, false)
	if err != nil {
		return err
	}
	reqs := e.reqs
	prof := trafficSchedule(reqs, sp.trafficEvery, b.seed)
	var ref *reference
	if err := b.spans.around("offline.reference", func() (err error) {
		ref, err = runReference(e, reqs, sp.pool, prof)
		return err
	}); err != nil {
		return err
	}
	traffic := eventCount(prof) > 0
	b.logf("stream: %d requests over %.0f sim-s, %d workers, oracle %s, pool %d, %d traffic events",
		len(reqs), reqs[len(reqs)-1].Release-reqs[0].Release, len(e.workers), e.kind, sp.pool, eventCount(prof))

	// Untraced runs give the end-to-end figures; a traced run alternates
	// them with traced ones, whose ratio is the tracing overhead.
	var plain, traced []*served
	start := time.Now()
	var last time.Duration
	for len(plain) == 0 || (!b.traced && len(plain) < minRuns) || (b.traced && len(traced) == 0) ||
		time.Since(start)+last <= b.budget {
		withTrace := b.traced && len(traced) < len(plain)
		runStart := time.Now()
		s, err := runLockstep(b.workdir, e, reqs, sp.pool, prof, withTrace)
		last = time.Since(runStart)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("run %d", len(plain)+len(traced)+1)
		dist, err := epochDist(e, appliedUpdates(prof, s.traffic))
		if err != nil {
			return err
		}
		b.gate.checkServed(label, s, dist, e.g.NumVertices(), traffic)
		b.gate.checkLockstep(label, s, ref)
		b.attempted += s.attempted + s.traffic
		b.failed += s.failed
		if withTrace {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}

	var trafficP50 []float64
	heap := 0.0
	for _, s := range plain {
		if tm := s.trafficMs(); len(tm) > 0 {
			v, _ := tailPercentile(tm, 0.5)
			trafficP50 = append(trafficP50, v)
		}
		heap = max(heap, s.heapMB)
	}
	dps, lat := combine(plain)
	p50, _ := tailPercentile(lat, 0.5)
	p99, q99 := tailPercentile(lat, 0.99)
	st := plain[0].stats
	b.logf("runs: %d untraced, %d traced; decisions_per_s %.2f combined, each replay's own %s",
		len(plain), len(traced), dps, fmtList(replayRates(plain), "%.2f"))
	b.logf("decision_ms_p50 %.3f ms; decision_ms_p99 %.3f ms (p%.1f of %d combined requests, not gated)", p50, p99, 100*q99, len(lat))
	b.logf("served %d/%d, unified_cost %.1f = total_distance %.1f + penalty_sum %.1f, late_arrivals %d, infeasible_stops %d",
		st.Accepted, st.Requests, st.UnifiedCost, st.TotalDistance, st.PenaltySum, st.LateArrivals, st.InfeasibleStops)
	if traffic {
		b.logf("traffic_apply_ms_p50 %s (%d events per run)", fmtList(trafficP50, "%.3f"), plain[0].traffic)
	}
	b.logf("failed_frac %.4f (%d of %d calls)", frac(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	if !b.traced {
		b.values["setup_s"] = median(setups)
		b.values["heap_mb"] = heap
		b.values["decisions_per_s"] = dps
		b.values["decision_ms_p50"] = p50
		b.values["served_rate"] = st.ServedRate
		b.values["unified_cost"] = st.UnifiedCost
		return nil
	}

	var probe *offlineProbe
	if err := b.spans.around("offline.probe", func() (err error) {
		probe, err = runOfflineProbe(e, reqs, prof, ref)
		return err
	}); err != nil {
		return err
	}
	if probe.mismatches > 0 {
		b.gate.failf("traced offline engine: %d decisions differ from the untraced reference", probe.mismatches)
	}
	sl := &serverLayers{}
	var c counters
	for _, s := range traced {
		sl.addServed(b.spans, s)
		c.add(s.stats)
	}
	tracedDps, _ := combine(traced)
	overhead := 1 - tracedDps/dps
	b.layerMetrics(sl, sl, c, len(traced), probe, ref, overhead, nil)
	return nil
}

func (b *bench) runLadder() error {
	sp := b.sp
	top := sp.ladder[len(sp.ladder)-1]
	n := 0
	for _, r := range sp.ladder {
		n = max(n, r.requests)
	}
	cfg := serve.Config{BatchWindow: ladderWindow, BatchSize: ladderBatch, MaxQueue: ladderMaxQueue}
	setups, e, err := b.setup(n, cfg, true)
	if err != nil {
		return err
	}
	b.logf("stream: %d requests over %.0f sim-s, %d workers, oracle %s; batch window %v, batch %d, max queue %d",
		len(e.reqs), e.reqs[len(e.reqs)-1].Release-e.reqs[0].Release, len(e.workers), e.kind,
		ladderWindow, ladderBatch, ladderMaxQueue)

	runOne := func(r ladderRung, traced bool) (*rungRun, error) {
		rr, err := runRung(b.workdir, e, e.reqs[:r.requests], r.rate, traced)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("rung %v/s", r.rate)
		b.gate.checkServed(label, rr.served, e.oracle.Dist, e.g.NumVertices(), false)
		if rr.shed != rr.stats.Shed || rr.ok != rr.stats.Accepted+rr.stats.Rejected || rr.accept != rr.stats.Accepted {
			b.gate.failf("%s: client saw %d answered (%d accepted) and %d shed, server counted %d accepted, %d rejected, %d shed",
				label, rr.ok, rr.accept, rr.shed, rr.stats.Accepted, rr.stats.Rejected, rr.stats.Shed)
		}
		b.attempted += rr.attempted
		b.failed += rr.failed
		return rr, nil
	}

	// The whole ladder is one measurement; repeat it while another one
	// fits in the budget.
	var ladders [][]*rungRun
	start := time.Now()
	var last time.Duration
	for len(ladders) == 0 || (!b.traced && time.Since(start)+last <= b.budget) {
		ladderStart := time.Now()
		var runs []*rungRun
		for _, r := range sp.ladder {
			rr, err := runOne(r, b.traced)
			if err != nil {
				return err
			}
			runs = append(runs, rr)
		}
		ladders = append(ladders, runs)
		last = time.Since(ladderStart)
	}

	// Pooled over the repeated ladders: latency samples of the lowest
	// rung, answers and wall time of the top one.
	var lowLat, slo, served, cost, late []float64
	var topOK int
	var topWall time.Duration
	heap := 0.0
	refused := 0
	for _, runs := range ladders {
		low, hi := runs[0], runs[len(runs)-1]
		topOK += hi.ok
		topWall += hi.wall
		lowLat = append(lowLat, low.latency...)
		served = append(served, low.stats.ServedRate)
		cost = append(cost, low.stats.UnifiedCost)
		var rungs []rung
		for _, rr := range runs {
			rungs = append(rungs, rung{rate: rr.rate, attempted: rr.attempted, onTime: rr.onTime})
			late = append(late, rr.lateMs...)
			heap = max(heap, rr.heapMB)
			refused += rr.shed
			lp50, _ := tailPercentile(append([]float64(nil), rr.latency...), 0.5)
			lp99, lq := tailPercentile(append([]float64(nil), rr.latency...), 0.99)
			lateP99, _ := tailPercentile(append([]float64(nil), rr.lateMs...), 0.99)
			b.logf("rung %6.0f/s: %4d sent, %4d answered (%d on time), %4d shed, %3d failed; latency p50 %.2f p%.1f %.2f ms; %d batches, %.1f answered/s; generator late p99 %.2f ms",
				rr.rate, rr.attempted, rr.ok, rr.onTime, rr.shed, rr.failed, lp50, 100*lq, lp99,
				rr.stats.Batches, float64(rr.ok)/rr.wall.Seconds(), lateP99)
		}
		slo = append(slo, sloRate(rungs, sloShare))
	}
	dps := float64(topOK) / topWall.Seconds()
	p50, _ := tailPercentile(append([]float64(nil), lowLat...), 0.5)
	p99, q99 := tailPercentile(lowLat, 0.99)
	lateP99, _ := tailPercentile(append([]float64(nil), late...), 0.99)
	b.logf("ladders: %d; slo_rate_rps %s (>= %.0f%% answered within %d ms of due)", len(ladders), fmtList(slo, "%.0f"), 100*sloShare, sloLimitMs)
	b.logf("goodput_rps at %.0f/s: %.1f", top.rate, dps)
	b.logf("failed_frac %.4f (%d refused + %d failed of %d attempted)",
		frac(float64(refused+b.failed), float64(b.attempted)), refused, b.failed, b.attempted)
	b.logf("generator lateness: p99 %.3f ms, max %.3f ms", lateP99, slices.Max(late))
	if !b.traced {
		b.values["setup_s"] = median(setups)
		b.values["heap_mb"] = heap
		b.values["decisions_per_s"] = dps
		b.values["decision_ms_p50"] = p50
		b.values["served_rate"] = median(served)
		b.values["unified_cost"] = median(cost)
		b.logf("at %.0f/s: decision_ms_p50 %.3f ms; decision_ms_p99 %.3f ms (p%.1f of %d requests, not gated)",
			sp.ladder[0].rate, p50, p99, 100*q99, len(lowLat))
		return nil
	}

	// Tracing overhead: the top rung once more, untraced.
	plainTop, err := runOne(top, false)
	if err != nil {
		return err
	}
	runs := ladders[0]
	low, hi := runs[0], runs[len(runs)-1]
	overhead := 1 - (float64(hi.ok)/hi.wall.Seconds())/(float64(plainTop.ok)/plainTop.wall.Seconds())
	lowReqs := e.reqs[:sp.ladder[0].requests]
	var ref *reference
	if err := b.spans.around("offline.reference", func() (err error) {
		ref, err = runReference(e, lowReqs, 1, nil)
		return err
	}); err != nil {
		return err
	}
	var probe *offlineProbe
	if err := b.spans.around("offline.probe", func() (err error) {
		probe, err = runOfflineProbe(e, lowReqs, nil, ref)
		return err
	}); err != nil {
		return err
	}
	if probe.mismatches > 0 {
		b.gate.failf("traced offline engine: %d decisions differ from the untraced reference", probe.mismatches)
	}
	slLow, slTop := &serverLayers{}, &serverLayers{}
	for _, rr := range runs {
		sl := &serverLayers{}
		switch rr {
		case low:
			sl = slLow
		case hi:
			sl = slTop
		}
		sl.addServed(b.spans, rr.served)
	}
	var c counters
	c.add(hi.stats)
	b.layerMetrics(slLow, slTop, c, 1, probe, ref, overhead, hi.lateMs)
	return nil
}

// combine joins replays of one stream call by call. Every replay does the
// same work call for call (its decisions are checked bit-identical), so
// for each call its step — from the previous call's answer to its own —
// and its round trip are taken as the lower median over the replays
// before anything is summed or ranked: interference that hit some
// replays part of the way through is left out instead of averaged in. It
// returns the requests answered per second over the summed steps and the
// requests' combined round trips in milliseconds.
func combine(runs []*served) (perSecond float64, requestMs []float64) {
	var steps, rtts [][]float64
	for _, s := range runs {
		steps = append(steps, s.stepsMs())
		rtts = append(rtts, s.requestMs())
	}
	requestMs = lowerMedianAcross(rtts)
	return frac(float64(len(requestMs)), sum(lowerMedianAcross(steps))/1e3), requestMs
}

// replayRates is each replay's own requests per second, for the report.
func replayRates(runs []*served) []float64 {
	var out []float64
	for _, s := range runs {
		out = append(out, float64(s.attempted)/s.wall.Seconds())
	}
	return out
}

// counters sums /v1/stats counters over server runs.
type counters struct {
	decisions, submitted, shed, late, prefetches, infeasible int
	hits, misses, syncs, bytes, queries                      uint64
}

func (c *counters) add(st serve.Stats) {
	c.decisions += st.Accepted + st.Rejected
	c.submitted += st.Submitted
	c.shed += st.Shed
	c.late += st.LateAdmissions
	c.prefetches += st.TablePrefetches
	c.infeasible += st.InfeasibleStops
	c.hits += st.TableHits
	c.misses += st.TableMisses
	c.syncs += st.WALSyncs
	c.bytes += st.WALBytes
	c.queries += st.DistQueries
}

// layerMetrics fills the per-layer metrics. lat holds the server runs the
// end-to-end latency is taken from, work those the throughput is taken
// from (the same runs in lockstep; the lowest and the top rung of the
// ladder), c the work runs' counters over runs server runs.
func (b *bench) layerMetrics(lat, work *serverLayers, c counters, runs int, probe *offlineProbe, ref *reference,
	overhead float64, lateMs []float64) {
	p := func(xs []float64, q float64) float64 {
		v, _ := tailPercentile(append([]float64(nil), xs...), q)
		return v
	}
	d := float64(c.decisions)
	n := float64(probe.decisions)
	m := b.values
	m["serve.http_ms_p50"] = p(lat.httpMs, 0.5)
	m["serve.queue_wait_ms_p50"] = p(lat.queueMs, 0.5)
	m["serve.flush_ms_p50"] = p(lat.flushMs, 0.5)
	m["serve.flush_ms_p99"] = p(lat.flushMs, 0.99)
	m["serve.flush_other_ms_p50"] = p(lat.flushOtherMs, 0.5)
	m["serve.batch_size_mean"] = mean(work.batch)
	m["serve.table_hit_frac"] = frac(float64(c.hits), float64(c.hits+c.misses))
	m["serve.table_hits_per_prefetch"] = frac(float64(c.hits), float64(c.prefetches))
	m["serve.shed_frac"] = frac(float64(c.shed), float64(c.submitted))
	m["serve.late_admission_frac"] = frac(float64(c.late), d)
	m["wal.syncs_per_decision"] = frac(float64(c.syncs), d)
	m["wal.sync_ms_p50"] = p(lat.syncMs, 0.5)
	m["wal.sync_ms_p99"] = p(lat.syncMs, 0.99)
	m["wal.bytes_per_decision"] = frac(float64(c.bytes), d)
	m["core.plan_us_p50"] = p(lat.planUs, 0.5)
	m["core.plan_us_p99"] = p(lat.planUs, 0.99)
	plans := float64(work.plans)
	m["core.candidates_mean"] = frac(float64(work.candidates), plans)
	m["core.feasible_mean"] = frac(float64(work.feasible), plans)
	m["core.evaluated_mean"] = frac(float64(work.evaluated), plans)
	m["core.dp_cells_per_decision"] = frac(float64(work.dpCells), plans)
	m["core.pruned_frac"] = frac(float64(work.pruned), float64(work.feasible))
	m["core.reject_bound_frac"] = frac(float64(work.rejectBound), plans)
	m["core.self_us_mean"] = frac(float64(probe.planNs-probe.planDistNs)/1e3, n)
	m["dispatch.parallel_frac"] = frac(float64(work.parallel), plans)
	// The offline engine replays exactly the requests lat's runs decided.
	m["dispatch.useful_frac"] = frac(frac(float64(probe.evaluated), n), frac(float64(lat.evaluated), float64(lat.plans)))
	m["shortest.queries_per_decision"] = frac(float64(c.queries), d)
	m["shortest.query_us_mean"] = frac(float64(probe.missNs)/1e3, float64(probe.misses))
	m["shortest.cache_hit_frac"] = frac(float64(probe.hits), float64(probe.hits+probe.misses))
	m["shortest.oracle_share"] = frac(float64(probe.planDistNs), float64(probe.planNs))
	m["shortest.customize_ms_p50"] = p(lat.customizeMs, 0.5)
	m["sim.engine_decide_us_mean"] = frac(float64(ref.wall.Nanoseconds())/1e3, n)
	m["sim.advance_us_per_decision"] = frac(float64(probe.runNs-probe.planNs)/1e3, n)
	m["sim.legs_per_decision"] = frac(float64(probe.legs), n)
	m["sim.leg_us_mean"] = frac(float64(probe.pathNs)/1e3, float64(probe.legs))
	m["sim.repair_ms_p50"] = p(probe.repairMs, 0.5)
	m["sim.infeasible_stops"] = frac(float64(c.infeasible), float64(runs))
	m["trace.overhead_frac"] = overhead
	m["trace.unattributed_frac"] = 1 - frac(float64(lat.stagesNs), float64(lat.rttNs))
	if u := m["trace.unattributed_frac"]; math.Abs(u) > maxUnattributed {
		b.gate.failf("named stages cover %.1f%% of the client-observed latency, want within %.0f%%",
			100*(1-u), 100*maxUnattributed)
	}
	m["loadgen.late_ms_p99"] = p(lateMs, 0.99)
	b.logf("blocking path: %.3f ms of client round trip per request, %.3f ms in named stages",
		frac(float64(lat.rttNs)/1e6, float64(len(lat.httpMs))), frac(float64(lat.stagesNs)/1e6, float64(len(lat.httpMs))))
}

// writeSpans writes the traced run's spans and prints their self times.
func (b *bench) writeSpans() error {
	path := filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.sp.name, b.seed))
	if err := b.spans.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b.logf("spans: %d written to %s; self time by span:", len(b.spans.spans), path)
	b.report.WriteString(traceSummary(b.spans))
	return nil
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func eventCount(prof *roadnet.TrafficProfile) int {
	if prof == nil {
		return 0
	}
	return len(prof.Events)
}

// appliedUpdates returns the update batches of the first k events.
func appliedUpdates(prof *roadnet.TrafficProfile, k int) [][]roadnet.TrafficUpdate {
	var out [][]roadnet.TrafficUpdate
	for i := 0; i < k; i++ {
		out = append(out, prof.Events[i].Updates)
	}
	return out
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
