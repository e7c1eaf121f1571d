// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation as Go benchmarks (one per table/figure, plus
// the complexity and pruning ablations). Run everything with
//
//	go test -bench=. -benchmem
//
// Figure benchmarks execute a full scaled-down sweep per iteration and
// additionally report the headline comparison (unified-cost ratio and
// speedup of pruneGreedyDP over the baselines) via b.ReportMetric.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/expt"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// benchScale keeps the figure sweeps laptop-sized; the cmd/urpsm-bench
// tool exposes the same sweeps at arbitrary scales.
const benchScale = 0.015

var (
	runnerOnce sync.Once
	runnerCh   *expt.Runner
	runnerNYC  *expt.Runner
)

// benchRunners lazily builds one runner per dataset, shared by all figure
// benchmarks (network generation and hub labeling dominate setup cost).
func benchRunners(b *testing.B) (*expt.Runner, *expt.Runner) {
	b.Helper()
	runnerOnce.Do(func() {
		var err error
		runnerCh, err = expt.NewRunner(workload.ChengduLike(benchScale), 1)
		if err != nil {
			panic(err)
		}
		runnerNYC, err = expt.NewRunner(workload.NYCLike(benchScale), 1)
		if err != nil {
			panic(err)
		}
		runnerCh.KineticMaxNodes = 20000
		runnerNYC.KineticMaxNodes = 20000
	})
	return runnerCh, runnerNYC
}

// reportSeries derives the paper's headline comparisons from a sweep and
// attaches them to the benchmark output.
func reportSeries(b *testing.B, s expt.Series) {
	b.Helper()
	var ucPG, ucWorst, respPG, respSlowest float64
	count := 0
	for _, pt := range s.Points {
		pg, ok := pt.Metrics["pruneGreedyDP"]
		if !ok {
			continue
		}
		count++
		ucPG += pg.UnifiedCost
		respPG += pg.AvgResponseMs
		worst, slow := pg.UnifiedCost, pg.AvgResponseMs
		for algo, m := range pt.Metrics {
			if algo == "pruneGreedyDP" {
				continue
			}
			if m.UnifiedCost > worst {
				worst = m.UnifiedCost
			}
			if m.AvgResponseMs > slow {
				slow = m.AvgResponseMs
			}
		}
		ucWorst += worst
		respSlowest += slow
	}
	if count == 0 || ucPG == 0 || respPG == 0 {
		return
	}
	b.ReportMetric(ucWorst/ucPG, "worstUC/pruneUC")
	b.ReportMetric(respSlowest/respPG, "slowest/prune-resp")
}

func benchFigure(b *testing.B, dataset string, fig func(*expt.Runner, []string) (expt.Series, error)) {
	ch, nyc := benchRunners(b)
	r := ch
	if dataset == "NYC" {
		r = nyc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := fig(r, expt.Algorithms)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, s)
		}
	}
}

// BenchmarkTable4DatasetStats regenerates Table 4 (dataset statistics).
func BenchmarkTable4DatasetStats(b *testing.B) {
	ch, nyc := benchRunners(b)
	for i := 0; i < b.N; i++ {
		for _, r := range []*expt.Runner{ch, nyc} {
			if _, err := r.Table4(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3VaryWorkers regenerates Fig. 3 (vary |W|).
func BenchmarkFig3VaryWorkers(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig3(a) })
		})
	}
}

// BenchmarkFig4VaryCapacity regenerates Fig. 4 (vary K_w).
func BenchmarkFig4VaryCapacity(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig4(a) })
		})
	}
}

// BenchmarkFig5VaryGrid regenerates Fig. 5 (vary grid size g, with index
// memory).
func BenchmarkFig5VaryGrid(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig5(a) })
		})
	}
}

// BenchmarkFig6VaryDeadline regenerates Fig. 6 (vary deadline e_r, with
// saved distance queries).
func BenchmarkFig6VaryDeadline(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig6(a) })
		})
	}
}

// BenchmarkFig7VaryPenalty regenerates Fig. 7 (vary penalty p_r).
func BenchmarkFig7VaryPenalty(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig7(a) })
		})
	}
}

// BenchmarkHardnessAdversary replays the §3.3 lower-bound constructions.
func BenchmarkHardnessAdversary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := expt.Hardness(workload.AdvServedCount, []int{8, 32, 128}, 50)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Served fraction at the largest |V| — should be near zero.
			last := pts[len(pts)-1]
			b.ReportMetric(float64(last.OnlineServed)/float64(last.Trials), "served@|V|=128")
		}
	}
}

// BenchmarkInsertionScaling is the §4 complexity ablation: the three
// operators on growing route lengths with an O(1) oracle, each running on
// a warmed scratch arena exactly as the planners do (0 allocs/op). The
// per-op times in the sub-benchmark names reproduce the cubic/quadric/
// linear separation.
func BenchmarkInsertionScaling(b *testing.B) {
	var sc core.Scratch
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		g, err := roadnet.LineGraph(2*n+10, 1)
		if err != nil {
			b.Fatal(err)
		}
		m := shortest.NewMatrix(g)
		rt, req := scalingRoute(b, m.Dist, n)
		L := m.Dist(req.Origin, req.Dest)
		b.Run(fmt.Sprintf("basic/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.Basic(rt, 1<<30, req, m.Dist)
			}
		})
		b.Run(fmt.Sprintf("naiveDP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.NaiveDP(rt, 1<<30, req, L, m.Dist)
			}
		})
		b.Run(fmt.Sprintf("linearDP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.LinearDP(rt, 1<<30, req, L, m.Dist)
			}
		})
	}
}

func scalingRoute(b *testing.B, dist core.DistFunc, n int) (*core.Route, *core.Request) {
	b.Helper()
	rt := &core.Route{Loc: 0, Now: 0}
	for i := 0; i < n/2; i++ {
		v := roadnet.VertexID(2*i + 2)
		rt.Stops = append(rt.Stops,
			core.Stop{Vertex: v, Kind: core.Pickup, Req: core.RequestID(i), Cap: 1, DDL: 1e15},
			core.Stop{Vertex: v + 1, Kind: core.Dropoff, Req: core.RequestID(i), Cap: 1, DDL: 1e15},
		)
	}
	rt.Recompute(dist)
	req := &core.Request{ID: 1 << 20, Origin: 1, Dest: roadnet.VertexID(2*(n/2) + 3), Deadline: 1e15, Capacity: 1}
	return rt, req
}

// BenchmarkPruningAblation quantifies Lemma 8: distance queries and wall
// time of pruneGreedyDP vs GreedyDP on identical workloads.
func BenchmarkPruningAblation(b *testing.B) {
	ch, _ := benchRunners(b)
	for _, algo := range []string{"pruneGreedyDP", "GreedyDP"} {
		b.Run(algo, func(b *testing.B) {
			var queries uint64
			for i := 0; i < b.N; i++ {
				m, err := ch.RunOne(ch.Base, algo)
				if err != nil {
					b.Fatal(err)
				}
				queries = m.DistQueries
			}
			b.ReportMetric(float64(queries), "dist-queries")
		})
	}
}

// BenchmarkOperatorInPlannerAblation runs the full pruneGreedy solution
// with each of the three insertion operators: quality is identical (the
// operators find the same optimum), so the wall-clock difference isolates
// the §4 contribution inside the complete system.
func BenchmarkOperatorInPlannerAblation(b *testing.B) {
	ch, _ := benchRunners(b)
	for _, algo := range []string{"pruneGreedyBasic", "pruneGreedyNaive", "pruneGreedyDP"} {
		b.Run(algo, func(b *testing.B) {
			var served int
			for i := 0; i < b.N; i++ {
				m, err := ch.RunOne(ch.Base, algo)
				if err != nil {
					b.Fatal(err)
				}
				served = m.Served
			}
			b.ReportMetric(float64(served), "served")
		})
	}
}

// BenchmarkOracleAblation swaps the distance oracle underneath the whole
// pipeline: hub labels vs contraction hierarchies vs plain bidirectional
// Dijkstra. Outcomes are identical (all exact); only the per-query cost
// differs, which dominates total planning time exactly as the paper's
// "shortest distance queries are the basic operation" framing predicts.
func BenchmarkOracleAblation(b *testing.B) {
	ch, _ := benchRunners(b)
	defer func() { ch.OracleKind = "" }()
	for _, kind := range []string{"hub", "ch", "bidijkstra"} {
		b.Run(kind, func(b *testing.B) {
			ch.OracleKind = kind
			for i := 0; i < b.N; i++ {
				if _, err := ch.RunOne(ch.Base, "pruneGreedyDP"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelBenchState freezes a mid-simulation fleet for the serial-vs-
// parallel planning benchmark: a figure-scale Chengdu workload whose
// first 60% of requests were planned and driven, leaving loaded routes,
// plus a probe set of still-unplanned requests.
type parallelBenchState struct {
	fleet *core.Fleet
	probe []*core.Request
}

var (
	parallelOnce  sync.Once
	parallelState *parallelBenchState
)

func parallelBench(b *testing.B) *parallelBenchState {
	b.Helper()
	parallelOnce.Do(func() {
		// A larger fleet than benchScale: fan-out pays off only when each
		// request has a meaningful candidate set. The full Chengdu fleet
		// (600 workers) on a quarter-scale network keeps candidate sets in
		// the hundreds while the setup stays laptop-sized.
		p := workload.ChengduLike(0.25)
		p.NumWorkers = 600
		p.NumRequests = 2500
		g, err := roadnet.Generate(p.Net)
		if err != nil {
			panic(err)
		}
		hub := shortest.BuildHubLabels(g)
		// The concurrency-safe chain serves both serial and parallel
		// planners so the comparison isolates dispatch, not caching.
		dist := shortest.NewShardedCached(hub, 1<<18, 64).Dist
		inst, err := workload.BuildOn(p, g, dist)
		if err != nil {
			panic(err)
		}
		fleet, err := core.NewFleet(g, dist, inst.Workers, 2000)
		if err != nil {
			panic(err)
		}
		eng := sim.NewEngine(fleet, core.NewPruneGreedyDP(fleet, 1), shortest.NewBiDijkstra(g), 1)
		cut := len(inst.Requests) * 3 / 5
		if _, err := eng.Run(inst.Requests[:cut]); err != nil {
			panic(err)
		}
		probe := inst.Requests[cut:]
		if len(probe) > 256 {
			probe = probe[:256]
		}
		parallelState = &parallelBenchState{fleet: fleet, probe: probe}
	})
	return parallelState
}

// BenchmarkParallelPlanning measures planning throughput of the parallel
// dispatcher against the serial planner on identical frozen fleet state.
// Plan never mutates routes, so every iteration sees the same state and
// sub-benchmarks are directly comparable; the speedup-vs-serial metric on
// the pooled runs is the dispatch subsystem's headline number (≈1x on a
// single-core machine — the dispatcher needs real cores to pay off).
func BenchmarkParallelPlanning(b *testing.B) {
	st := parallelBench(b)
	serial := core.NewPruneGreedyDP(st.fleet, 1)
	serialNsPerOp := 0.0
	for _, pool := range []int{1, 2, 4, 8} {
		pool := pool
		b.Run(fmt.Sprintf("pool%d", pool), func(b *testing.B) {
			var planner interface {
				Plan(now float64, req *core.Request) (*core.Worker, core.Insertion, float64)
			} = serial
			if pool > 1 {
				par := dispatch.NewParallelPruneGreedyDP(st.fleet, 1, pool)
				// Spot-check determinism before timing.
				for _, r := range st.probe[:4] {
					ws, is, _ := serial.Plan(r.Release, r)
					wp, ip, _ := par.Plan(r.Release, r)
					if (ws == nil) != (wp == nil) || (ws != nil && (ws.ID != wp.ID || is.Delta != ip.Delta)) {
						b.Fatalf("pool %d diverged from serial on request %d", pool, r.ID)
					}
				}
				planner = par
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := st.probe[i%len(st.probe)]
				planner.Plan(r.Release, r)
			}
			b.StopTimer()
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if pool == 1 {
				serialNsPerOp = nsPerOp
			} else if serialNsPerOp > 0 && nsPerOp > 0 {
				b.ReportMetric(serialNsPerOp/nsPerOp, "speedup-vs-serial")
			}
		})
	}
}

// BenchmarkPlanWithObserver measures the flight recorder's overhead on
// the steady-state plan path: the same frozen fleet state planned with
// no observer versus with a trace.Recorder (plan-latency histogram
// attached) receiving every plan. The delta is the observability tax —
// per the Polynesia lesson it must stay within noise, and the observed
// path stays 0 allocs/op (TestGreedyPlanZeroAllocs and
// TestRecorderPlanZeroAllocs pin that; ReportAllocs shows it here).
func BenchmarkPlanWithObserver(b *testing.B) {
	st := parallelBench(b)
	for _, traced := range []bool{false, true} {
		name := "observer=off"
		if traced {
			name = "observer=on"
		}
		b.Run(name, func(b *testing.B) {
			planner := core.NewPruneGreedyDP(st.fleet, 1)
			if traced {
				rec := trace.New(4096)
				rec.PlanSeconds = trace.NewHistogram(trace.LatencyBuckets())
				planner.SetObserver(rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := st.probe[i%len(st.probe)]
				planner.Plan(r.Release, r)
			}
		})
	}
}

// BenchmarkDecisionLowerBound measures the zero-query Lemma 7 bound in
// isolation: it must stay linear in route length and allocation-light.
// BenchmarkDistUnderRebuild measures point-to-point query latency through
// the epoch-aware oracle front in its steady states — tier=hub and
// tier=cch (a preprocessed tier answers) versus tier=live-during-rebuild
// (an epoch just advanced and the live bidirectional-Dijkstra tier
// answers while the preprocessed tier rebuilds asynchronously) — plus the
// cost of the epoch advance itself: advance=rebuild-ch pays a full
// witness-search contraction per epoch, advance=customize-cch re-derives
// shortcut weights over the fixed CCH skeleton. The rebuild/customize gap
// is what the CCH tier buys (DESIGN.md §12): it bounds how long the
// serve layer's urpsm_oracle_rebuild_seconds gauge stays nonzero and how
// long queries pay live-tier latency after a traffic update.
func BenchmarkDistUnderRebuild(b *testing.B) {
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 40, Cols: 40, Spacing: 150, Jitter: 0.2, ArterialEvery: 5,
		MotorwayRing: true, DetourMin: 1.05, DetourMax: 1.3, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	budget := shortest.AutoBudget{MaxHubVertices: g.NumVertices(), MaxCHVertices: g.NumVertices()}
	n := g.NumVertices()
	pairs := make([][2]roadnet.VertexID, 256)
	for i := range pairs {
		pairs[i] = [2]roadnet.VertexID{roadnet.VertexID(i * 7 % n), roadnet.VertexID(i * 13 % n)}
	}

	b.Run("tier=hub", func(b *testing.B) {
		v := shortest.NewVersioned(g, budget, true)
		v.WaitRebuild()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			v.Dist(p[0], p[1])
		}
	})
	b.Run("tier=cch", func(b *testing.B) {
		cchBudget := shortest.AutoBudget{MaxCCHVertices: n, MaxCHVertices: n}
		v := shortest.NewVersioned(g, cchBudget, true)
		v.WaitRebuild()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			v.Dist(p[0], p[1])
		}
	})
	b.Run("tier=live-during-rebuild", func(b *testing.B) {
		// Advance to a fresh epoch per outer iteration batch and query
		// before the rebuild completes; WaitRebuild is never called inside
		// the timed region, so the hub tier practically never answers.
		overlay := roadnet.NewOverlay(g)
		v := shortest.NewVersioned(g, budget, true)
		v.WaitRebuild()
		cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: 1.5}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%4096 == 0 {
				b.StopTimer()
				v.WaitRebuild() // don't stack rebuild goroutines
				v.Advance(cur, epoch)
				b.StartTimer()
			}
			p := pairs[i%len(pairs)]
			v.Dist(p[0], p[1])
		}
		b.StopTimer()
		v.WaitRebuild()
	})
	// The advance=* pair is the PR 6 acceptance comparison: one epoch
	// advance on the classic CH tier (full witness-search contraction)
	// versus the CCH customize fast path over the shared skeleton. Both
	// run synchronously so the measured op IS the preprocessing cost.
	b.Run("advance=rebuild-ch", func(b *testing.B) {
		chBudget := shortest.AutoBudget{MaxCHVertices: n}
		overlay := roadnet.NewOverlay(g)
		v := shortest.NewVersioned(g, chBudget, false)
		cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: 1.5}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Advance(cur, epoch)
		}
	})
	b.Run("advance=customize-cch", func(b *testing.B) {
		cchBudget := shortest.AutoBudget{MaxCCHVertices: n, MaxCHVertices: n}
		overlay := roadnet.NewOverlay(g)
		v := shortest.NewVersioned(g, cchBudget, false)
		cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: 1.5}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Advance(cur, epoch)
		}
		b.StopTimer()
		if v.Customizations() == 0 {
			b.Fatal("customize fast path not taken")
		}
	})
}

func BenchmarkDecisionLowerBound(b *testing.B) {
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 20, Cols: 20, Spacing: 150, Jitter: 0.2, ArterialEvery: 5,
		MotorwayRing: true, DetourMin: 1.05, DetourMax: 1.3, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := shortest.NewMatrix(g)
	rt, req := scalingRoute(b, m.Dist, 16)
	// Re-home the synthetic route onto this graph's vertex range.
	for i := range rt.Stops {
		rt.Stops[i].Vertex = roadnet.VertexID(i % g.NumVertices())
	}
	rt.Recompute(m.Dist)
	req.Origin, req.Dest = 5, roadnet.VertexID(g.NumVertices()-1)
	L := m.Dist(req.Origin, req.Dest)
	var sc core.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.LowerBound(rt, 1<<30, req, g, L)
	}
}

// BenchmarkWALCommit measures the durability cost of the serve layer's
// group commit (DESIGN.md §13.2): one admission batch = one commit
// group = one fsync. Each iteration appends a full commit group (batch
// header + group-size admission/decision pairs) and syncs it, so
// records-per-fsync shows what batching buys: group=1 pays a whole
// fsync per decision, group=64 amortizes it 64-fold. The fsync-per-op
// figure is the real disk latency of the test machine — expect
// milliseconds, not the nanoseconds of the in-memory append path.
func BenchmarkWALCommit(b *testing.B) {
	for _, group := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("group=%d", group), func(b *testing.B) {
			l, err := wal.Create(b.TempDir()+"/wal.log", 1)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			adm := wal.Admission{ID: 1, Origin: 7, Dest: 9, Release: 100,
				Deadline: 700, Penalty: 320.5, Capacity: 2}
			dec := wal.Decision{ID: 1, Accepted: true, Worker: 3,
				Delta: 142.75, SimTime: 100}
			var admBuf, decBuf, batchBuf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batchBuf = wal.AppendBatch(batchBuf[:0], group, 0)
				l.Append(wal.TypeBatch, batchBuf)
				for j := 0; j < group; j++ {
					admBuf = wal.AppendAdmission(admBuf[:0], adm)
					l.Append(wal.TypeAdmission, admBuf)
					decBuf = wal.AppendDecision(decBuf[:0], dec)
					l.Append(wal.TypeDecision, decBuf)
				}
				if err := l.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			if b.N > 0 {
				b.ReportMetric(float64(2*group), "records/fsync")
				b.ReportMetric(elapsed.Seconds()/float64(b.N*group)*1e9, "ns/decision")
			}
		})
	}
}

// BenchmarkSaturation drives the online dispatch service open-loop over
// HTTP at fixed offered loads with a bounded admission queue — the
// in-process twin of `urpsm-replay -rate` (DESIGN.md §15.4). Each
// iteration fires one request at its scheduled arrival instant without
// waiting for completions, so at rates past the service capacity the
// queue fills and deterministic shedding kicks in. Reported per rate:
// goodput-rps (decided work per wall second), shed-rate (429 fraction of
// offered) and p99-ms client-observed latency — the numbers whose curve
// locates the throughput knee.
func BenchmarkSaturation(b *testing.B) {
	p := workload.ChengduLike(0.01)
	g, err := roadnet.Generate(p.Net)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := workload.BuildOn(p, g, shortest.NewBiDijkstra(g).Dist)
	if err != nil {
		b.Fatal(err)
	}
	oracle := shortest.BuildHubLabels(g)

	for _, rate := range []float64{500, 2000, 8000} {
		b.Run(fmt.Sprintf("rate=%v", rate), func(b *testing.B) {
			srv, err := serve.NewServer(serve.Config{
				Graph: g, Workers: inst.Workers, Oracle: oracle, OracleKind: "hub",
				BatchWindow: 2 * time.Millisecond, BatchSize: 16, MaxQueue: 32,
			})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = srv.Shutdown(ctx)
			}()
			client := ts.Client()

			var decided, shed, failed atomic.Int64
			var mu sync.Mutex
			var lat []float64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := inst.Requests[i%len(inst.Requests)]
				body, _ := json.Marshal(serve.Request{
					Origin: int64(r.Origin), Dest: int64(r.Dest),
					Deadline: 1e9, Penalty: r.Penalty, Capacity: r.Capacity,
				})
				wg.Add(1)
				go func(body []byte) {
					defer wg.Done()
					t0 := time.Now()
					resp, err := client.Post(ts.URL+"/v1/requests", "application/json", bytes.NewReader(body))
					if err != nil {
						failed.Add(1)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						decided.Add(1)
						ms := float64(time.Since(t0).Nanoseconds()) / 1e6
						mu.Lock()
						lat = append(lat, ms)
						mu.Unlock()
					case http.StatusTooManyRequests:
						shed.Add(1)
					default:
						failed.Add(1)
					}
				}(body)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			if failed.Load() > 0 {
				b.Fatalf("%d requests failed", failed.Load())
			}
			b.ReportMetric(float64(decided.Load())/elapsed.Seconds(), "goodput-rps")
			b.ReportMetric(float64(shed.Load())/float64(b.N), "shed-rate")
			b.ReportMetric(sim.Percentile(lat, 0.99), "p99-ms")
		})
	}
}

// --- Loaded-fleet planning and CCH customization ---

// batchPlanState freezes a mid-simulation snapshot for the loaded-fleet
// planning benchmark: the fleet after the engine has worked the first
// 60% of the stream, plus the remaining requests. Each benchmark
// iteration restores the snapshot and replans the whole remainder with
// committing decisions and a cold LRU cache — a live server's regime,
// where every request brings fresh endpoints and routes evolve between
// requests. (Replaying one frozen request against an ever-warm cache
// would let the LRU absorb every point query and measure nothing.)
type batchPlanState struct {
	g     *roadnet.Graph
	hub   *shortest.HubLabels
	saved []*core.Worker
	tail  []*core.Request
}

var (
	batchPlanOnce  sync.Once
	batchPlanFixed *batchPlanState
)

// cloneFleetWorkers deep-copies the snapshot so one iteration's
// committed insertions never leak into the next.
func cloneFleetWorkers(ws []*core.Worker) []*core.Worker {
	out := make([]*core.Worker, len(ws))
	for i, w := range ws {
		c := *w
		c.Route.Stops = append([]core.Stop(nil), w.Route.Stops...)
		c.Route.Arr = append([]float64(nil), w.Route.Arr...)
		out[i] = &c
	}
	return out
}

func batchPlanBench(b *testing.B) *batchPlanState {
	b.Helper()
	batchPlanOnce.Do(func() {
		p := workload.ChengduLike(0.25)
		p.NumWorkers = 600
		p.NumRequests = 2500
		g, err := roadnet.Generate(p.Net)
		if err != nil {
			panic(err)
		}
		hub := shortest.BuildHubLabels(g)
		inst, err := workload.BuildOn(p, g, hub.Dist)
		if err != nil {
			panic(err)
		}
		fleet, err := core.NewFleet(g, hub.Dist, inst.Workers, 2000)
		if err != nil {
			panic(err)
		}
		eng := sim.NewEngine(fleet, core.NewPruneGreedyDP(fleet, 1), shortest.NewBiDijkstra(g), 1)
		cut := len(inst.Requests) * 3 / 5
		if _, err := eng.Run(inst.Requests[:cut]); err != nil {
			panic(err)
		}
		batchPlanFixed = &batchPlanState{
			g: g, hub: hub,
			saved: cloneFleetWorkers(inst.Workers),
			tail:  inst.Requests[cut:],
		}
	})
	return batchPlanFixed
}

// BenchmarkBatchPlanning replans the tail of a Chengdu-like stream with
// pruneGreedyDP on a loaded 600-worker fleet, every distance a point
// query through the LRU cache (serve's flush path). dist-queries/op
// counts oracle queries that escaped the cache. The sub-benchmark keeps
// the name "point" so earlier BENCH_PR*.json runs still line up.
func BenchmarkBatchPlanning(b *testing.B) {
	st := batchPlanBench(b)
	b.Run("point", func(b *testing.B) {
		var queries uint64
		for i := 0; i < b.N; i++ {
			counter := shortest.NewCounting(st.hub)
			fleet, err := core.NewFleet(st.g, shortest.NewCached(counter, 1<<18).Dist,
				cloneFleetWorkers(st.saved), 2000)
			if err != nil {
				b.Fatal(err)
			}
			planner := core.NewPruneGreedyDP(fleet, 1)
			for _, r := range st.tail {
				planner.OnRequest(r.Release, r)
			}
			queries += counter.Count()
		}
		b.ReportMetric(float64(queries)/float64(b.N), "dist-queries/op")
	})
}

// BenchmarkCCHCustomize measures the metric-customization sweep serially
// and with the level-parallel triangle fan-out
// (TestCustomizeParallelBitExact pins them bit-identical). On a
// single-core host the fan-out is expected to sit at ≈1x — the numbers
// record the partitioning overhead honestly; real cores turn it into a
// speedup.
func BenchmarkCCHCustomize(b *testing.B) {
	g, skel := cchSkelBench(b)
	costs := g.ArcCosts()
	serialNs := 0.0
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				skel.CustomizeParallel(costs, workers)
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if workers == 1 {
				serialNs = nsPerOp
			} else if serialNs > 0 && nsPerOp > 0 {
				b.ReportMetric(serialNs/nsPerOp, "speedup-vs-serial")
			}
		})
	}
}

var (
	cchSkelOnce  sync.Once
	cchSkelGraph *roadnet.Graph
	cchSkelFixed *shortest.CCHSkeleton
)

// cchSkelBench returns the ~10k-vertex grid and its CCH skeleton, built
// once per process.
func cchSkelBench(b *testing.B) (*roadnet.Graph, *shortest.CCHSkeleton) {
	b.Helper()
	cchSkelOnce.Do(func() {
		g, err := roadnet.Generate(roadnet.GenConfig{
			Rows: 100, Cols: 100, Spacing: 150, Jitter: 0.2, ArterialEvery: 5,
			MotorwayRing: true, RemoveFrac: 0.08, DetourMin: 1.05, DetourMax: 1.3,
			Seed: 3,
		})
		if err != nil {
			panic(err)
		}
		cchSkelGraph, cchSkelFixed = g, shortest.BuildCCHSkeleton(g)
	})
	return cchSkelGraph, cchSkelFixed
}
