package core

// JSON state encoding of routes and workers, shared by the online dispatch
// service's /v1 API and its snapshot files (FORMATS.md §5). The wire types
// are deliberately separate from the in-memory ones: field names are part
// of a persisted format, stop kinds travel as strings, and decoding
// validates everything it can without an oracle (vertex ranges, array
// lengths, kinds, load accounting). Arrival times are stored rather than
// recomputed so a snapshot round trip is bit-exact.

import (
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// StopState is the wire form of a Stop.
type StopState struct {
	Vertex int64   `json:"vertex"`
	Kind   string  `json:"kind"` // "pickup" | "dropoff"
	Req    int32   `json:"req"`
	Cap    int     `json:"cap"`
	DDL    float64 `json:"ddl"`
}

// RouteState is the wire form of a Route.
type RouteState struct {
	Loc     int64       `json:"loc"`
	Now     float64     `json:"now"`
	Onboard int         `json:"onboard"`
	Stops   []StopState `json:"stops"`
	Arr     []float64   `json:"arr"`
}

// WorkerState is the wire form of a Worker.
type WorkerState struct {
	ID       int32      `json:"id"`
	Capacity int        `json:"capacity"`
	Traveled float64    `json:"traveled"`
	Route    RouteState `json:"route"`
}

// NewRouteState captures rt for the wire.
func NewRouteState(rt *Route) RouteState {
	out := RouteState{
		Loc:     int64(rt.Loc),
		Now:     rt.Now,
		Onboard: rt.Onboard,
		Stops:   make([]StopState, len(rt.Stops)),
		Arr:     append([]float64(nil), rt.Arr...),
	}
	for i, s := range rt.Stops {
		out.Stops[i] = StopState{
			Vertex: int64(s.Vertex),
			Kind:   s.Kind.String(),
			Req:    int32(s.Req),
			Cap:    s.Cap,
			DDL:    s.DDL,
		}
	}
	return out
}

// NewWorkerState captures w for the wire.
func NewWorkerState(w *Worker) WorkerState {
	return WorkerState{
		ID:       int32(w.ID),
		Capacity: w.Capacity,
		Traveled: w.Traveled,
		Route:    NewRouteState(&w.Route),
	}
}

// finite rejects the NaN/Inf values a hand-edited or fuzzed snapshot could
// smuggle into arrival times and deadlines.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Route reconstructs the in-memory route, validating structure against a
// graph with numVertices vertices: vertex ranges, Arr length, stop kinds,
// finite and non-decreasing arrival times, and non-negative running load.
// Deadline feasibility is not checked here — it needs a distance oracle;
// callers that want it run Route.Validate afterwards.
func (s RouteState) Route(numVertices int) (Route, error) {
	nv := int64(numVertices)
	if s.Loc < 0 || s.Loc >= nv {
		return Route{}, fmt.Errorf("core: route location %d out of range [0,%d)", s.Loc, nv)
	}
	if !finite(s.Now) {
		return Route{}, fmt.Errorf("core: route time %v not finite", s.Now)
	}
	if len(s.Arr) != len(s.Stops) {
		return Route{}, fmt.Errorf("core: %d arrival times for %d stops", len(s.Arr), len(s.Stops))
	}
	if s.Onboard < 0 {
		return Route{}, fmt.Errorf("core: negative onboard load %d", s.Onboard)
	}
	rt := Route{
		Loc:     roadnet.VertexID(s.Loc),
		Now:     s.Now,
		Onboard: s.Onboard,
	}
	if len(s.Stops) == 0 {
		return rt, nil
	}
	rt.Stops = make([]Stop, len(s.Stops))
	rt.Arr = append([]float64(nil), s.Arr...)
	load := s.Onboard
	prevArr := s.Now
	for i, st := range s.Stops {
		var kind StopKind
		switch st.Kind {
		case "pickup":
			kind = Pickup
		case "dropoff":
			kind = Dropoff
		default:
			return Route{}, fmt.Errorf("core: stop %d has unknown kind %q", i, st.Kind)
		}
		if st.Vertex < 0 || st.Vertex >= nv {
			return Route{}, fmt.Errorf("core: stop %d vertex %d out of range [0,%d)", i, st.Vertex, nv)
		}
		if st.Cap < 1 {
			return Route{}, fmt.Errorf("core: stop %d has capacity %d < 1", i, st.Cap)
		}
		if !finite(st.DDL) || !finite(s.Arr[i]) {
			return Route{}, fmt.Errorf("core: stop %d has non-finite time", i)
		}
		// Planners maintain Arr incrementally (later stops are shifted by
		// an insertion's detour, not recomputed), so an arrival can land a
		// few ULP before the previous one; accept a step within
		// Route.Validate's tolerance so every state the server writes can
		// be restored.
		if s.Arr[i] < prevArr-feasEps*(1+math.Abs(prevArr)) {
			return Route{}, fmt.Errorf("core: stop %d arrival %v before previous %v", i, s.Arr[i], prevArr)
		}
		prevArr = max(prevArr, s.Arr[i])
		rt.Stops[i] = Stop{
			Vertex: roadnet.VertexID(st.Vertex),
			Kind:   kind,
			Req:    RequestID(st.Req),
			Cap:    st.Cap,
			DDL:    st.DDL,
		}
		load += rt.Stops[i].loadDelta()
		if load < 0 {
			return Route{}, fmt.Errorf("core: negative load %d after stop %d", load, i)
		}
	}
	return rt, nil
}

// Worker reconstructs the in-memory worker, validating the route against a
// graph with numVertices vertices and the load against the capacity.
func (s WorkerState) Worker(numVertices int) (*Worker, error) {
	if s.Capacity < 1 {
		return nil, fmt.Errorf("core: worker %d has capacity %d < 1", s.ID, s.Capacity)
	}
	if s.Traveled < 0 || !finite(s.Traveled) {
		return nil, fmt.Errorf("core: worker %d has bad traveled %v", s.ID, s.Traveled)
	}
	rt, err := s.Route.Route(numVertices)
	if err != nil {
		return nil, fmt.Errorf("core: worker %d: %w", s.ID, err)
	}
	load := rt.Onboard
	if load > s.Capacity {
		return nil, fmt.Errorf("core: worker %d onboard %d exceeds capacity %d", s.ID, load, s.Capacity)
	}
	for i, st := range rt.Stops {
		load += st.loadDelta()
		if load > s.Capacity {
			return nil, fmt.Errorf("core: worker %d load %d exceeds capacity %d after stop %d",
				s.ID, load, s.Capacity, i)
		}
	}
	return &Worker{
		ID:       WorkerID(s.ID),
		Capacity: s.Capacity,
		Traveled: s.Traveled,
		Route:    rt,
	}, nil
}
