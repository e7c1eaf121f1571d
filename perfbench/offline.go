package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/workload"
)

// reference is the untraced offline run every served decision is checked
// against: serve.OfflineDecisions with the same pool and traffic profile
// the server runs with.
type reference struct {
	decisions map[int32]serve.Decision
	metrics   sim.Metrics
	wall      time.Duration
}

func runReference(e *env, reqs []*core.Request, pool int, prof *roadnet.TrafficProfile) (*reference, error) {
	inst := &workload.Instance{Graph: e.g, Workers: e.workers, Requests: cloneRequests(reqs)}
	start := time.Now()
	ds, m, err := serve.OfflineDecisions(e.g, inst, e.oracle, e.kind, 1, pool, prof)
	if err != nil {
		return nil, fmt.Errorf("offline reference: %w", err)
	}
	return &reference{decisions: ds, metrics: m, wall: time.Since(start)}, nil
}

// offlineProbe is what the traced offline engine measured. The engine is
// assembled here from the program's public constructors with timing
// wrappers at three layer boundaries — the fleet's distance function
// (above the LRU, so hits and misses are told apart by the cache's own
// miss counter), the planner and the leg-path oracle. The server's oracle
// is never wrapped: ManyToManyFor and AdoptVersioned recognise tiers by
// their concrete type, so a wrapper there would silently turn off the
// batch prefetch and CCH customization the server runs with.
type offlineProbe struct {
	decisions  int
	runNs      int64 // engine time, plan + advance
	planNs     int64
	planDistNs int64 // distance lookups made while planning
	hits       int64
	misses     int64
	missNs     int64
	pathNs     int64
	legs       int
	evaluated  int64 // serial planner's exact insertion evaluations
	repairMs   []float64
	mismatches int
}

// timedDist times every distance lookup through the LRU cache.
type timedDist struct {
	cached *shortest.Cached
	p      *offlineProbe
	ns     int64
}

func (t *timedDist) Dist(u, v roadnet.VertexID) float64 {
	_, m0 := t.cached.Stats()
	start := time.Now()
	d := t.cached.Dist(u, v)
	dt := time.Since(start).Nanoseconds()
	t.ns += dt
	if _, m1 := t.cached.Stats(); m1 != m0 {
		t.p.misses++
		t.p.missNs += dt
	} else {
		t.p.hits++
	}
	return d
}

// timedPlanner times OnRequest and the distance lookups made inside it.
type timedPlanner struct {
	inner   *core.Greedy
	dist    *timedDist
	p       *offlineProbe
	results map[int32]core.Result
}

func (t *timedPlanner) Name() string { return t.inner.Name() }

func (t *timedPlanner) SetObserver(o core.PlanObserver) { t.inner.SetObserver(o) }

func (t *timedPlanner) OnRequest(now float64, req *core.Request) core.Result {
	d0 := t.dist.ns
	start := time.Now()
	res := t.inner.OnRequest(now, req)
	t.p.planNs += time.Since(start).Nanoseconds()
	t.p.planDistNs += t.dist.ns - d0
	t.results[int32(req.ID)] = res
	return res
}

// timedPaths times leg-path searches.
type timedPaths struct {
	inner shortest.PathOracle
	p     *offlineProbe
}

func (t *timedPaths) Dist(s, u roadnet.VertexID) float64 { return t.inner.Dist(s, u) }

func (t *timedPaths) Path(s, u roadnet.VertexID) []roadnet.VertexID {
	start := time.Now()
	path := t.inner.Path(s, u)
	t.p.pathNs += time.Since(start).Nanoseconds()
	return path
}

// evalCounter is the plan observer: it sums the serial planner's exact
// insertion evaluations.
type evalCounter struct{ p *offlineProbe }

func (c evalCounter) PlanStart(float64, *core.Request) {}
func (c evalCounter) PlanDone(tr *core.PlanTrace)      { c.p.evaluated += int64(tr.Stats.Evaluated) }

// runOfflineProbe replays reqs through the assembled serial engine,
// applying traffic events exactly where sim.Engine's timeline would
// (before the first request released at or after them), and checks its
// decisions against the reference.
func runOfflineProbe(e *env, reqs []*core.Request, prof *roadnet.TrafficProfile, ref *reference) (*offlineProbe, error) {
	p := &offlineProbe{}
	overlay := roadnet.NewOverlay(e.g)
	v := shortest.AdoptVersioned(e.g, e.oracle, shortest.AutoKind(e.kind), shortest.DefaultAutoBudget(), false)
	cached := shortest.NewCached(shortest.NewCounting(v), 1<<18)
	td := &timedDist{cached: cached, p: p}
	workers := make([]*core.Worker, len(e.workers))
	for i, w := range e.workers {
		c := *w
		c.Route = w.Route.Clone()
		workers[i] = &c
	}
	fleet, err := core.NewFleet(e.g, td.Dist, workers, 2000)
	if err != nil {
		return nil, fmt.Errorf("offline probe fleet: %w", err)
	}
	planner := &timedPlanner{inner: core.NewPruneGreedyDP(fleet, 1), dist: td, p: p,
		results: make(map[int32]core.Result, len(reqs))}
	eng := sim.NewEngine(fleet, planner, &timedPaths{inner: shortest.NewBiDijkstra(e.g), p: p}, 1)
	eng.Observer = evalCounter{p: p}
	tc := sim.NewTraffic(overlay, v, fleet, eng.World())
	var events []roadnet.TrafficEvent
	if prof != nil {
		events = prof.Events
	}
	// Run between traffic events: Engine.Run recomputes its run metrics on
	// every call, so one call per request would time that instead.
	rs := cloneRequests(reqs)
	next := 0
	for lo := 0; lo < len(rs); {
		for next < len(events) && events[next].At <= rs[lo].Release {
			start := time.Now()
			if _, err := tc.Apply(events[next].At, events[next].Updates); err != nil {
				return nil, fmt.Errorf("offline probe traffic: %w", err)
			}
			p.repairMs = append(p.repairMs, float64((time.Since(start)-v.LastRebuild()).Nanoseconds())/1e6)
			// Apply rebinds the world to a fresh leg-path engine; time it too.
			w := eng.World()
			w.SetPaths(&timedPaths{inner: w.Paths, p: p})
			next++
		}
		hi := lo + 1
		for hi < len(rs) && (next >= len(events) || events[next].At > rs[hi].Release) {
			hi++
		}
		start := time.Now()
		if _, err := eng.Run(rs[lo:hi]); err != nil {
			return nil, fmt.Errorf("offline probe: %w", err)
		}
		p.runNs += time.Since(start).Nanoseconds()
		lo = hi
	}
	p.decisions = len(reqs)
	p.legs = eng.World().LegsComputed()
	for id, want := range ref.decisions {
		got, ok := planner.results[id]
		if !ok || got.Served != want.Accepted || (got.Served && (int32(got.Worker) != want.Worker || got.Delta != want.Delta)) {
			p.mismatches++
		}
	}
	return p, nil
}
