package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/roadnet"
)

func sampleWorker() *Worker {
	return &Worker{
		ID:       3,
		Capacity: 4,
		Traveled: 120.5,
		Route: Route{
			Loc:     7,
			Now:     100,
			Onboard: 1,
			Stops: []Stop{
				{Vertex: 9, Kind: Pickup, Req: 11, Cap: 2, DDL: 400},
				{Vertex: 2, Kind: Dropoff, Req: 11, Cap: 2, DDL: 700},
				{Vertex: 5, Kind: Dropoff, Req: 8, Cap: 1, DDL: 900},
			},
			Arr: []float64{150, 300, 450},
		},
	}
}

func TestWorkerStateRoundTrip(t *testing.T) {
	w := sampleWorker()
	st := NewWorkerState(w)
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back WorkerState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Worker(16)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != w.ID || got.Capacity != w.Capacity || got.Traveled != w.Traveled {
		t.Fatalf("worker fields changed: %+v vs %+v", got, w)
	}
	rt, want := got.Route, w.Route
	if rt.Loc != want.Loc || rt.Now != want.Now || rt.Onboard != want.Onboard {
		t.Fatalf("route head changed: %+v vs %+v", rt, want)
	}
	if len(rt.Stops) != len(want.Stops) {
		t.Fatalf("stop count %d vs %d", len(rt.Stops), len(want.Stops))
	}
	for i := range rt.Stops {
		if rt.Stops[i] != want.Stops[i] {
			t.Fatalf("stop %d changed: %+v vs %+v", i, rt.Stops[i], want.Stops[i])
		}
		if rt.Arr[i] != want.Arr[i] {
			t.Fatalf("arr %d changed: %v vs %v", i, rt.Arr[i], want.Arr[i])
		}
	}
}

func TestRouteStateEmptyRoute(t *testing.T) {
	rt, err := NewRouteState(&Route{Loc: 3, Now: 50}).Route(4)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Loc != 3 || rt.Now != 50 || len(rt.Stops) != 0 || len(rt.Arr) != 0 {
		t.Fatalf("empty route changed: %+v", rt)
	}
}

func TestRouteStateRejectsBadInput(t *testing.T) {
	base := func() RouteState { return NewRouteState(&sampleWorker().Route) }
	cases := []struct {
		name   string
		mutate func(*RouteState)
	}{
		{"loc out of range", func(s *RouteState) { s.Loc = 99 }},
		{"negative loc", func(s *RouteState) { s.Loc = -1 }},
		{"nan now", func(s *RouteState) { s.Now = math.NaN() }},
		{"arr length mismatch", func(s *RouteState) { s.Arr = s.Arr[:1] }},
		{"negative onboard", func(s *RouteState) { s.Onboard = -1 }},
		{"unknown kind", func(s *RouteState) { s.Stops[0].Kind = "teleport" }},
		{"stop vertex out of range", func(s *RouteState) { s.Stops[1].Vertex = 1 << 30 }},
		{"zero stop cap", func(s *RouteState) { s.Stops[0].Cap = 0 }},
		{"inf ddl", func(s *RouteState) { s.Stops[0].DDL = math.Inf(1) }},
		{"decreasing arrivals", func(s *RouteState) { s.Arr[1] = s.Arr[0] - 1 }},
		{"negative load", func(s *RouteState) {
			// Dropping 2 from onboard 1 with no prior pickup goes negative.
			s.Onboard = 1
			s.Stops[0] = StopState{Vertex: 1, Kind: "dropoff", Req: 99, Cap: 2, DDL: 500}
		}},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		if _, err := s.Route(16); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestRouteStateArrivalTolerance pins the backward-step tolerance
// feasEps*(1+|t|): a few-ULP step back (the values of a route a
// lockstep-hub server wrote at seed 12) decodes unchanged, a step past
// the tolerance does not (1e-3 s exceeds it at t = 100, where it is
// about 1e-4 s; at t ≈ 1e4 it is about 1e-2 s).
func TestRouteStateArrivalTolerance(t *testing.T) {
	cases := []struct {
		name       string
		prev, next float64
		ok         bool
	}{
		{"equal", 9929.119830771253, 9929.119830771253, true},
		{"forward", 9929.119830771253, 9930, true},
		{"two ulp back", 9929.119830771253, 9929.119830771251, true},
		{"1e-3 back", 100, 100 - 1e-3, false},
		{"0.1 back", 9929.119830771253, 9929.019830771253, false},
	}
	for _, tc := range cases {
		s := RouteState{Loc: 0, Now: 50, Stops: []StopState{
			{Vertex: 1, Kind: "pickup", Req: 1, Cap: 1, DDL: 20000},
			{Vertex: 1, Kind: "dropoff", Req: 1, Cap: 1, DDL: 20000},
		}, Arr: []float64{tc.prev, tc.next}}
		rt, err := s.Route(4)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err == nil && (rt.Arr[0] != tc.prev || rt.Arr[1] != tc.next) {
			t.Errorf("%s: arrivals changed to %v", tc.name, rt.Arr)
		}
	}
}

func TestWorkerStateRejectsBadInput(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*WorkerState)
	}{
		{"zero capacity", func(s *WorkerState) { s.Capacity = 0 }},
		{"negative traveled", func(s *WorkerState) { s.Traveled = -1 }},
		{"nan traveled", func(s *WorkerState) { s.Traveled = math.NaN() }},
		{"onboard over capacity", func(s *WorkerState) { s.Route.Onboard = 9 }},
		{"load over capacity", func(s *WorkerState) { s.Capacity = 2; s.Route.Onboard = 2 }},
	}
	for _, tc := range cases {
		s := NewWorkerState(sampleWorker())
		tc.mutate(&s)
		if _, err := s.Worker(16); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestRouteStateAcceptsOnboardDropoff checks the tail of a mid-flight
// route: a drop-off whose pickup already happened decodes fine.
func TestRouteStateAcceptsOnboardDropoff(t *testing.T) {
	rt := Route{
		Loc: 0, Now: 10, Onboard: 2,
		Stops: []Stop{{Vertex: 1, Kind: Dropoff, Req: 5, Cap: 2, DDL: 600}},
		Arr:   []float64{60},
	}
	got, err := NewRouteState(&rt).Route(4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stops[0].Vertex != roadnet.VertexID(1) || got.Onboard != 2 {
		t.Fatalf("onboard drop-off changed: %+v", got)
	}
}
