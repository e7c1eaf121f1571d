package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/workload"
)

// spec fixes everything a workload runs except the seed.
type spec struct {
	name string
	// scale is the ChengduLike preset scale; workers and dayRequests
	// override the preset's fleet size and its requests per simulated day
	// (0 keeps the preset's).
	scale       float64
	workers     int
	dayRequests int
	oracle      string // "hub" or "cch"
	// requests is how many requests of the seeded stream (in release
	// order, from the start of the day) one lockstep repetition replays.
	requests int
	// pool > 1 plans with the parallel dispatcher.
	pool int
	// trafficEvery > 0 interleaves one congestion event per that many
	// simulated seconds.
	trafficEvery float64
	// ladder is the open loop's offered rates, each with the number of
	// requests it replays; empty for lockstep workloads.
	ladder []ladderRung
}

type ladderRung struct {
	rate     float64
	requests int
}

// thinning is how many candidate requests the pool stream draws per
// request the benchmark keeps. The pool is generated with the preset's
// own seed, so the city — road network, demand hotspots and fleet start
// positions — is the same for every workload seed; the workload seed only
// picks which 1 in thinning of the pool's trips happen. A fresh preset
// seed would move the hotspots, and with them the served rate by ±10%,
// which is a different city rather than a different day.
const thinning = 2

// env is one workload's generated inputs.
type env struct {
	g       *roadnet.Graph
	oracle  shortest.Oracle
	kind    string
	workers []*core.Worker
	// reqs is the seeded stream in release order.
	reqs []*core.Request
}

// buildEnv generates the road network, builds the distance oracle and
// draws the seeded request stream (the first n requests of the day).
func buildEnv(sp spec, seed int64, n int) (*env, error) {
	p := workload.ChengduLike(sp.scale)
	if sp.workers > 0 {
		p.NumWorkers = sp.workers
	}
	if sp.dayRequests > 0 {
		p.NumRequests = sp.dayRequests
	}
	g, err := roadnet.Generate(p.Net)
	if err != nil {
		return nil, fmt.Errorf("generate network: %w", err)
	}
	var o shortest.Oracle
	switch sp.oracle {
	case "hub":
		o = shortest.BuildHubLabels(g)
	case "cch":
		o = shortest.BuildCCH(g)
	default:
		return nil, fmt.Errorf("unknown oracle %q", sp.oracle)
	}
	e := &env{g: g, oracle: o, kind: sp.oracle}
	if e.workers, e.reqs, err = drawStream(p, g, o, seed, n); err != nil {
		return nil, err
	}
	return e, nil
}

// drawStream generates the pool stream with the preset's seed, keeps each
// request with probability 1/thinning under the workload seed, and returns
// the first n kept requests in release order with their penalties.
//
// workload.BuildOn calls its distance function once per request, only to
// set p_r = PenaltyFactor · dis(o_r, d_r), and the call draws nothing from
// the generator, so the pool is generated with a free stand-in and the
// penalty of each kept request is then set from the real oracle exactly as
// BuildOn would have: this skips thousands of oracle queries for requests
// the benchmark never sends.
func drawStream(p workload.Params, g *roadnet.Graph, o shortest.Oracle, seed int64, n int) ([]*core.Worker, []*core.Request, error) {
	p.NumRequests *= thinning
	free := func(u, v roadnet.VertexID) float64 { return 0 }
	pool, err := workload.BuildOn(p, g, free)
	if err != nil {
		return nil, nil, fmt.Errorf("generate stream: %w", err)
	}
	all := append([]*core.Request(nil), pool.Requests...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Release < all[j].Release })
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]*core.Request, 0, n)
	for _, r := range all {
		if len(reqs) == n {
			break
		}
		if rng.Intn(thinning) != 0 {
			continue
		}
		r.Penalty = p.PenaltyFactor * o.Dist(r.Origin, r.Dest)
		reqs = append(reqs, r)
	}
	if len(reqs) < n {
		return nil, nil, fmt.Errorf("stream has %d requests, want %d", len(reqs), n)
	}
	return pool.Workers, reqs, nil
}

// cloneRequests copies the requests so a consumer that reorders or
// annotates them cannot disturb the next one.
func cloneRequests(reqs []*core.Request) []*core.Request {
	out := make([]*core.Request, len(reqs))
	for i, r := range reqs {
		c := *r
		out[i] = &c
	}
	return out
}

// congestion is the rush profile the serve smoke test injects — congestion
// builds, peaks on motorways, then clears — cycled on a fixed interval.
var congestion = [][]roadnet.TrafficUpdate{
	{{Factor: 1.6}},
	{{Factor: 2.2, Class: "motorway"}, {Factor: 1.3}},
	{{Factor: 1}},
}

// trafficSchedule returns one congestion event every `every` simulated
// seconds over the stream's release span. The seed sets the offset of the
// first event within the interval and where in the rush cycle it starts.
func trafficSchedule(reqs []*core.Request, every float64, seed int64) *roadnet.TrafficProfile {
	if every <= 0 || len(reqs) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7a3f))
	phase := rng.Intn(len(congestion))
	first := reqs[0].Release + every*(0.25+0.5*rng.Float64())
	last := reqs[len(reqs)-1].Release
	prof := &roadnet.TrafficProfile{}
	for k := 0; first+float64(k)*every <= last; k++ {
		ups := congestion[(phase+k)%len(congestion)]
		prof.Events = append(prof.Events, roadnet.TrafficEvent{
			At:      first + float64(k)*every,
			Updates: append([]roadnet.TrafficUpdate(nil), ups...),
		})
	}
	return prof
}
