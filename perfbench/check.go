package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// gate collects correctness failures; no metric is reported unless it is
// empty.
type gate struct{ failures []string }

func (g *gate) failf(format string, args ...any) {
	if len(g.failures) < 20 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool { return len(g.failures) == 0 }

// checkServed runs the checks every server run must pass: every call got
// the expected status, the Eq. 2 identity holds on /v1/stats, the
// admission accounting adds up, no drop-off was late where no traffic
// could have delayed it, and every final route is feasible.
func (g *gate) checkServed(label string, s *served, dist core.DistFunc, nv int, traffic bool) {
	for _, msg := range s.errs {
		g.failf("%s: %s", label, msg)
	}
	st := s.stats
	if want := st.TotalDistance + st.PenaltySum; st.UnifiedCost != want {
		g.failf("%s: unified_cost %v != alpha*total_distance + penalty_sum = %v", label, st.UnifiedCost, want)
	}
	if st.Accepted+st.Rejected+st.Shed != st.Submitted || st.Submitted != s.attempted {
		g.failf("%s: accounting: accepted %d + rejected %d + shed %d, submitted %d, attempted %d",
			label, st.Accepted, st.Rejected, st.Shed, st.Submitted, s.attempted)
	}
	if st.Pending != 0 {
		g.failf("%s: %d requests still pending after every response arrived", label, st.Pending)
	}
	if !traffic && st.LateArrivals != 0 {
		g.failf("%s: %d late arrivals without traffic", label, st.LateArrivals)
	}
	if s.conns != 1 {
		g.failf("%s: load came over %d connections, want 1", label, s.conns)
	}
	if s.evicted {
		g.failf("%s: flight recorder evicted events", label)
	}
	late, err := validateRoutes(s.routes, nv, dist, traffic)
	if err != nil {
		g.failf("%s: %v", label, err)
	}
	// A slowdown may break a promise the planner made under the old
	// weights; the server counts each such stop. More late stops than it
	// counted would be a broken route, not a broken promise.
	if late > st.InfeasibleStops {
		g.failf("%s: %d stops past their deadline, server counted %d infeasible", label, late, st.InfeasibleStops)
	}
}

// checkLockstep adds the replay-equivalence checks of a lockstep run: no
// late admission, and every decision — accept, worker and Δ* bits —
// identical to the offline reference, as are the served rate and the
// unified cost.
func (g *gate) checkLockstep(label string, s *served, ref *reference) {
	if s.stats.LateAdmissions != 0 || s.stats.Shed != 0 {
		g.failf("%s: %d late admissions, %d shed in a lockstep replay", label, s.stats.LateAdmissions, s.stats.Shed)
	}
	if len(s.decisions) != len(ref.decisions) {
		g.failf("%s: %d decisions, reference has %d", label, len(s.decisions), len(ref.decisions))
	}
	bad := 0
	for id, want := range ref.decisions {
		got, ok := s.decisions[id]
		if !ok || got.Accepted != want.Accepted || got.Worker != want.Worker ||
			math.Float64bits(got.Delta) != math.Float64bits(want.Delta) {
			if bad++; bad <= 3 {
				g.failf("%s: request %d served %+v, offline %+v", label, id, got, want)
			}
		}
	}
	if bad > 3 {
		g.failf("%s: %d decisions differ from the offline reference", label, bad)
	}
	m := ref.metrics
	if s.stats.ServedRate != m.ServedRate || s.stats.UnifiedCost != m.UnifiedCost {
		g.failf("%s: served_rate %v unified_cost %v, offline %v %v",
			label, s.stats.ServedRate, s.stats.UnifiedCost, m.ServedRate, m.UnifiedCost)
	}
}

// validateRoutes reconstructs every worker (WorkerState.Worker checks the
// vertex range and the load) and checks its route with core.Route.Validate
// against dist: arrival times consistent with the oracle, capacity,
// precedence and deadlines. With traffic, deadlines a slowdown broke are
// counted instead of failing: the route is validated with its deadlines
// lifted and the stops past their deadline are returned.
func validateRoutes(states []core.WorkerState, nv int, dist core.DistFunc, traffic bool) (late int, err error) {
	for _, ws := range states {
		w, err := ws.Worker(nv)
		if err != nil {
			return late, fmt.Errorf("worker %d: %w", ws.ID, err)
		}
		rt := w.Route
		if traffic {
			for i, st := range rt.Stops {
				if rt.Arr[i] > st.DDL+1e-6*(1+math.Abs(st.DDL)) {
					late++
				}
			}
			lifted := rt.Clone()
			for i := range lifted.Stops {
				lifted.Stops[i].DDL = math.Inf(1)
			}
			rt = lifted
		}
		if err := rt.Validate(w.Capacity, dist); err != nil {
			return late, fmt.Errorf("worker %d: %w", ws.ID, err)
		}
	}
	return late, nil
}

// epochDist is the distance function of the weights after the applied
// traffic events: the CCH skeleton customized to them, which the server's
// own tier is bit-identical to. Without events it is the base oracle.
func epochDist(e *env, applied [][]roadnet.TrafficUpdate) (core.DistFunc, error) {
	if len(applied) == 0 {
		return e.oracle.Dist, nil
	}
	cch, ok := e.oracle.(*shortest.CCH)
	if !ok {
		return nil, fmt.Errorf("traffic needs the cch oracle, have %s", e.kind)
	}
	ov := roadnet.NewOverlay(e.g)
	for _, ups := range applied {
		if _, _, _, err := ov.Apply(ups); err != nil {
			return nil, fmt.Errorf("replay traffic: %w", err)
		}
	}
	return cch.Skeleton().Customize(ov.Graph().ArcCosts()).Dist, nil
}
