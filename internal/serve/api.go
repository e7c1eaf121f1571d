package serve

// The /v1 wire types and HTTP handlers. Field sets and names are part of
// the persisted format contract documented in FORMATS.md §5; the golden
// fixtures under testdata/ pin them.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"

	"repro/internal/core"
	"repro/internal/roadnet"
)

// maxBodyBytes bounds a /v1/requests body; a request is a handful of
// scalars, so anything near this limit is garbage.
const maxBodyBytes = 1 << 20

var errDraining = errors.New("serve: shutting down, not accepting requests")

// Request is the body of POST /v1/requests: Definition 3 on the wire.
type Request struct {
	// ID is the client's request identifier, echoed in the decision. When
	// omitted the server assigns the next free one.
	ID *int32 `json:"id,omitempty"`
	// Origin and Dest are road-network vertex IDs.
	Origin int64 `json:"origin"`
	Dest   int64 `json:"dest"`
	// Release is the request's event time t_r in simulation seconds; when
	// omitted it defaults to the server's current event clock.
	Release *float64 `json:"release,omitempty"`
	// Deadline is the latest drop-off time e_r (absolute sim seconds).
	Deadline float64 `json:"deadline"`
	// Penalty is the rejection penalty p_r.
	Penalty float64 `json:"penalty"`
	// Capacity is the seat/item demand K_r; 0 means 1.
	Capacity int `json:"capacity,omitempty"`
}

// Decision is the response of POST /v1/requests.
type Decision struct {
	ID       int32 `json:"id"`
	Accepted bool  `json:"accepted"`
	// Worker is the assigned worker ID, -1 when rejected.
	Worker int32 `json:"worker"`
	// Delta is Δ*: the travel-time increase of serving the request.
	Delta float64 `json:"delta"`
	// PickupETA and DropoffETA are planned arrival times (absolute sim
	// seconds) at the request's stops, set when accepted.
	PickupETA  float64 `json:"pickup_eta,omitempty"`
	DropoffETA float64 `json:"dropoff_eta,omitempty"`
	// SimTime is the event-clock time the decision was made at.
	SimTime float64 `json:"sim_time"`
	// Batch is the 1-based admission batch that carried the request.
	Batch int `json:"batch,omitempty"`
	// WaitMs is the server-side admission-to-decision latency.
	WaitMs float64 `json:"wait_ms,omitempty"`
	// Shed reports that the request was turned away by the overload shed
	// policy (DESIGN.md §15) without being planned; delivered with HTTP
	// 429. Accepted is always false and Worker -1 on a shed decision.
	Shed bool `json:"shed,omitempty"`
	// RetryAfterMs is the deterministic backoff hint on a shed decision:
	// one batch window, the soonest the queue can have drained.
	RetryAfterMs int `json:"retry_after_ms,omitempty"`
}

// Stats is the body of GET /v1/stats.
type Stats struct {
	Algorithm      string  `json:"algorithm"`
	Oracle         string  `json:"oracle"`
	Workers        int     `json:"workers"`
	SimTime        float64 `json:"sim_time"`
	Requests       int     `json:"requests"`
	Accepted       int     `json:"accepted"`
	Rejected       int     `json:"rejected"`
	ServedRate     float64 `json:"served_rate"`
	TotalDistance  float64 `json:"total_distance"`
	PenaltySum     float64 `json:"penalty_sum"`
	UnifiedCost    float64 `json:"unified_cost"`
	Completions    int     `json:"completions"`
	LateArrivals   int     `json:"late_arrivals"`
	Batches        int     `json:"batches"`
	MaxBatch       int     `json:"max_batch"`
	LateAdmissions int     `json:"late_admissions"`
	Pending        int     `json:"pending"`
	// Submitted counts every request that entered the admission path
	// (planned or shed); Shed counts those the overload policy turned
	// away with 429 (DESIGN.md §15). QueueLimit is the *effective*
	// pending cap (0 = unbounded) — MaxQueue unless ladder stage 3
	// tightened it. DegradeState is the current ladder stage (0 =
	// healthy … 3 = shedding) and DegradeTransitions counts every stage
	// change in either direction.
	Submitted          int    `json:"submitted"`
	Shed               int    `json:"shed"`
	QueueLimit         int    `json:"queue_limit"`
	DegradeState       int    `json:"degrade_state"`
	DegradeTransitions int    `json:"degrade_transitions"`
	DistQueries        uint64 `json:"dist_queries"`
	// TablePrefetches, TableHits and TableMisses are retired and always
	// 0: they counted the per-batch distance-table prefetch, which was
	// deleted because its fill cost far more than the reads it answered
	// (DESIGN.md §16). The fields and their urpsm_table_* families stay so
	// existing scrapers and the end-to-end benchmark keep parsing.
	TablePrefetches int    `json:"table_prefetches"`
	TableHits       uint64 `json:"table_hits"`
	TableMisses     uint64 `json:"table_misses"`
	// TrafficEpoch is the current weight epoch (0 = base weights);
	// TrafficUpdates counts applied POST /v1/traffic batches, and
	// InfeasibleStops the promises broken by slowdowns (cumulative).
	TrafficEpoch    uint64 `json:"traffic_epoch"`
	TrafficUpdates  int    `json:"traffic_updates"`
	InfeasibleStops int    `json:"infeasible_stops"`
	// OracleRebuilds counts completed preprocessed-tier rebuilds;
	// OracleCustomizations counts how many of those took the CCH
	// customize fast path (re-deriving shortcut weights over the fixed
	// skeleton instead of preprocessing from scratch); LastRebuildMs is
	// the duration of the most recent rebuild or customization.
	OracleRebuilds       uint64  `json:"oracle_rebuilds"`
	OracleCustomizations uint64  `json:"oracle_customizations"`
	LastRebuildMs        float64 `json:"last_rebuild_ms"`
	// WALEnabled reports whether the write-ahead log is on; the WAL*
	// counters below are lifetime totals (zero when disabled).
	// WALRecovered counts records replayed at the last startup, and
	// WALTornBytes how many torn tail bytes that recovery discarded.
	WALEnabled     bool      `json:"wal_enabled"`
	WALRecords     uint64    `json:"wal_records"`
	WALBytes       uint64    `json:"wal_bytes"`
	WALSyncs       uint64    `json:"wal_syncs"`
	WALCheckpoints uint64    `json:"wal_checkpoints"`
	WALRecovered   int       `json:"wal_recovered"`
	WALTornBytes   int       `json:"wal_torn_bytes"`
	WALSizeBytes   int64     `json:"wal_size_bytes"`
	LatencyMs      LatencyMs `json:"latency_ms"`
	// TraceEvents is how many flight-recorder events are currently
	// retained (0 when tracing is disabled).
	TraceEvents int `json:"trace_events"`
}

// TrafficRequest is the body of POST /v1/traffic.
type TrafficRequest struct {
	// At is the event time in simulation seconds; the effective time is
	// max(event clock, at), and omitting it means "now". Lockstep traffic
	// injection (urpsm-replay -traffic) sets it to the trace event's time
	// so server and offline reference advance identically.
	At *float64 `json:"at,omitempty"`
	// Updates is the batch applied atomically as one epoch advance.
	Updates []roadnet.TrafficUpdate `json:"updates"`
}

// TrafficResult is the response of POST /v1/traffic.
type TrafficResult struct {
	Epoch           uint64  `json:"epoch"`
	SimTime         float64 `json:"sim_time"`
	ChangedEdges    int     `json:"changed_edges"`
	RoutesRepaired  int     `json:"routes_repaired"`
	InfeasibleStops int     `json:"infeasible_stops"`
}

// LatencyMs carries admission-to-decision latency percentiles over the
// most recent requests.
type LatencyMs struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// apiError is every non-200 body.
type apiError struct {
	Error string `json:"error"`
}

// CoreRequest validates the wire request against the graph and converts
// it, filling defaults (capacity 1; release = now when omitted).
func (r *Request) CoreRequest(g *roadnet.Graph, id int32, now float64) (*core.Request, error) {
	nv := int64(g.NumVertices())
	if r.Origin < 0 || r.Origin >= nv {
		return nil, fmt.Errorf("origin %d out of range [0,%d)", r.Origin, nv)
	}
	if r.Dest < 0 || r.Dest >= nv {
		return nil, fmt.Errorf("dest %d out of range [0,%d)", r.Dest, nv)
	}
	release := now
	if r.Release != nil {
		release = *r.Release
	}
	cap := r.Capacity
	if cap == 0 {
		cap = 1
	}
	if !finiteAll(release, r.Deadline, r.Penalty) {
		return nil, fmt.Errorf("non-finite time or penalty")
	}
	if r.ID != nil {
		if *r.ID < 0 {
			return nil, fmt.Errorf("negative request id %d", *r.ID)
		}
		id = *r.ID
	}
	req := &core.Request{
		ID:       core.RequestID(id),
		Origin:   roadnet.VertexID(r.Origin),
		Dest:     roadnet.VertexID(r.Dest),
		Release:  release,
		Deadline: r.Deadline,
		Penalty:  r.Penalty,
		Capacity: cap,
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return req, nil
}

func finiteAll(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Handler returns the /v1 + /metrics HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", s.handleRequest)
	mux.HandleFunc("POST /v1/traffic", s.handleTraffic)
	mux.HandleFunc("GET /v1/workers/{id}/route", s.handleWorkerRoute)
	mux.HandleFunc("GET /v1/decisions/{id}", s.handleDecision)
	mux.HandleFunc("GET /v1/decisions/{id}/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/runtime", s.handleRuntime)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	var body Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad json: " + err.Error()})
		return
	}
	if body.ID != nil && *body.ID < 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("negative request id %d", *body.ID)})
		return
	}
	id := s.reserveID(body.ID)
	now := s.eventTime()
	req, err := body.CoreRequest(s.cfg.Graph, id, now)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	done, err := s.submit(req, body.Release == nil)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	}
	select {
	case d := <-done:
		if d.Shed {
			// Overload: the shed verdict is durable (it rode the batch's
			// WAL commit group) but the request was never planned. The
			// Retry-After header is the wire hint in whole seconds,
			// rounded up; the body carries the exact milliseconds.
			w.Header().Set("Retry-After", strconv.Itoa((d.RetryAfterMs+999)/1000))
			writeJSON(w, http.StatusTooManyRequests, d)
			return
		}
		writeJSON(w, http.StatusOK, d)
	case <-r.Context().Done():
		// The client went away; the request is already admitted and will
		// be decided with its batch — only the response is dropped.
	}
}

// eventTime reads the current event clock lock-free (the admission path
// must not wait on a flushing batch).
func (s *Server) eventTime() float64 {
	return math.Float64frombits(s.simTimeBits.Load())
}

// handleTraffic applies a live traffic update: one epoch advance through
// the whole stack (weights, oracle tiers, caches, route repair, leg
// caches). Invalid updates are rejected with 400 before any state moves.
func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	var body TrafficRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad json: " + err.Error()})
		return
	}
	if body.At != nil && !finiteAll(*body.At) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "non-finite at"})
		return
	}
	res, err := s.ApplyTraffic(body.At, body.Updates)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleWorkerRoute(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad worker id"})
		return
	}
	ws, ok := s.WorkerRoute(core.WorkerID(id))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no worker %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, ws)
}

// handleDecision resolves the crashed-ack ambiguity after a restart: 200
// with the stored decision when the request committed before the crash,
// 404 when it never did (safe to resend). Only decisions inside the
// bounded decided window are retained — see Server.DecisionFor.
func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil || id < 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request id"})
		return
	}
	d, ok := s.DecisionFor(int32(id))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no retained decision for request %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// handleCheckpoint forces a durable snapshot checkpoint + log
// truncation; 409 when the server runs without a WAL.
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	res, err := s.Checkpoint()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrWALDisabled) {
			status = http.StatusConflict
		}
		writeJSON(w, status, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.TakeSnapshot())
}

// handleMetrics renders the stats in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP urpsm_requests_total Requests decided, by outcome.\n")
	p("# TYPE urpsm_requests_total counter\n")
	p("urpsm_requests_total{outcome=\"accepted\"} %d\n", st.Accepted)
	p("urpsm_requests_total{outcome=\"rejected\"} %d\n", st.Rejected)
	p("# HELP urpsm_pending_requests Requests admitted but not yet decided.\n")
	p("# TYPE urpsm_pending_requests gauge\n")
	p("urpsm_pending_requests %d\n", st.Pending)
	p("# HELP urpsm_submitted_total Requests that entered the admission path (planned or shed).\n")
	p("# TYPE urpsm_submitted_total counter\n")
	p("urpsm_submitted_total %d\n", st.Submitted)
	p("# HELP urpsm_shed_total Requests turned away by the overload shed policy (HTTP 429).\n")
	p("# TYPE urpsm_shed_total counter\n")
	p("urpsm_shed_total %d\n", st.Shed)
	p("# HELP urpsm_queue_limit Effective pending-queue cap (0 = unbounded).\n")
	p("# TYPE urpsm_queue_limit gauge\n")
	p("urpsm_queue_limit %d\n", st.QueueLimit)
	p("# HELP urpsm_degrade_state Degradation ladder stage (0 = healthy, 3 = shedding).\n")
	p("# TYPE urpsm_degrade_state gauge\n")
	p("urpsm_degrade_state %d\n", st.DegradeState)
	p("# HELP urpsm_degrade_transitions_total Degradation ladder stage changes, either direction.\n")
	p("# TYPE urpsm_degrade_transitions_total counter\n")
	p("urpsm_degrade_transitions_total %d\n", st.DegradeTransitions)
	p("# HELP urpsm_batches_total Admission batches flushed.\n")
	p("# TYPE urpsm_batches_total counter\n")
	p("urpsm_batches_total %d\n", st.Batches)
	p("# HELP urpsm_batch_size_max Largest batch flushed so far.\n")
	p("# TYPE urpsm_batch_size_max gauge\n")
	p("urpsm_batch_size_max %d\n", st.MaxBatch)
	p("# HELP urpsm_late_admissions_total Requests admitted after the event clock passed their release.\n")
	p("# TYPE urpsm_late_admissions_total counter\n")
	p("urpsm_late_admissions_total %d\n", st.LateAdmissions)
	p("# HELP urpsm_sim_time_seconds Event-clock time.\n")
	p("# TYPE urpsm_sim_time_seconds gauge\n")
	p("urpsm_sim_time_seconds %g\n", st.SimTime)
	p("# HELP urpsm_total_distance_seconds Fleet travel time, completed plus planned.\n")
	p("# TYPE urpsm_total_distance_seconds gauge\n")
	p("urpsm_total_distance_seconds %g\n", st.TotalDistance)
	p("# HELP urpsm_penalty_sum Accumulated rejection penalties.\n")
	p("# TYPE urpsm_penalty_sum gauge\n")
	p("urpsm_penalty_sum %g\n", st.PenaltySum)
	p("# HELP urpsm_unified_cost Unified cost alpha*distance + penalties.\n")
	p("# TYPE urpsm_unified_cost gauge\n")
	p("urpsm_unified_cost %g\n", st.UnifiedCost)
	p("# HELP urpsm_completions_total Drop-offs completed.\n")
	p("# TYPE urpsm_completions_total counter\n")
	p("urpsm_completions_total %d\n", st.Completions)
	p("# HELP urpsm_late_arrivals_total Drop-offs after their deadline (must stay 0).\n")
	p("# TYPE urpsm_late_arrivals_total counter\n")
	p("urpsm_late_arrivals_total %d\n", st.LateArrivals)
	p("# HELP urpsm_dist_queries_total Shortest-distance oracle queries.\n")
	p("# TYPE urpsm_dist_queries_total counter\n")
	p("urpsm_dist_queries_total %d\n", st.DistQueries)
	p("# HELP urpsm_table_prefetches_total Retired, always 0 (the batch distance-table prefetch was deleted).\n")
	p("# TYPE urpsm_table_prefetches_total counter\n")
	p("urpsm_table_prefetches_total %d\n", st.TablePrefetches)
	p("# HELP urpsm_table_hits_total Retired, always 0 (the batch distance-table prefetch was deleted).\n")
	p("# TYPE urpsm_table_hits_total counter\n")
	p("urpsm_table_hits_total %d\n", st.TableHits)
	p("# HELP urpsm_table_misses_total Retired, always 0 (the batch distance-table prefetch was deleted).\n")
	p("# TYPE urpsm_table_misses_total counter\n")
	p("urpsm_table_misses_total %d\n", st.TableMisses)
	p("# HELP urpsm_workers Fleet size.\n")
	p("# TYPE urpsm_workers gauge\n")
	p("urpsm_workers %d\n", st.Workers)
	p("# HELP urpsm_traffic_epoch Current weight epoch (0 = base weights).\n")
	p("# TYPE urpsm_traffic_epoch gauge\n")
	p("urpsm_traffic_epoch %d\n", st.TrafficEpoch)
	p("# HELP urpsm_traffic_updates_total Traffic update batches applied.\n")
	p("# TYPE urpsm_traffic_updates_total counter\n")
	p("urpsm_traffic_updates_total %d\n", st.TrafficUpdates)
	p("# HELP urpsm_infeasible_stops_total Planned stops made late by traffic updates.\n")
	p("# TYPE urpsm_infeasible_stops_total counter\n")
	p("urpsm_infeasible_stops_total %d\n", st.InfeasibleStops)
	p("# HELP urpsm_oracle_rebuilds_total Preprocessed-oracle rebuilds completed after epoch advances.\n")
	p("# TYPE urpsm_oracle_rebuilds_total counter\n")
	p("urpsm_oracle_rebuilds_total %d\n", st.OracleRebuilds)
	p("# HELP urpsm_oracle_customizations_total Oracle rebuilds that took the CCH customize fast path.\n")
	p("# TYPE urpsm_oracle_customizations_total counter\n")
	p("urpsm_oracle_customizations_total %d\n", st.OracleCustomizations)
	p("# HELP urpsm_oracle_rebuild_seconds Duration of the most recent oracle rebuild or customization.\n")
	p("# TYPE urpsm_oracle_rebuild_seconds gauge\n")
	p("urpsm_oracle_rebuild_seconds %g\n", st.LastRebuildMs/1e3)
	walOn := 0
	if st.WALEnabled {
		walOn = 1
	}
	p("# HELP urpsm_wal_enabled Whether the write-ahead log is on.\n")
	p("# TYPE urpsm_wal_enabled gauge\n")
	p("urpsm_wal_enabled %d\n", walOn)
	p("# HELP urpsm_wal_records_total WAL records appended.\n")
	p("# TYPE urpsm_wal_records_total counter\n")
	p("urpsm_wal_records_total %d\n", st.WALRecords)
	p("# HELP urpsm_wal_bytes_total WAL record bytes appended.\n")
	p("# TYPE urpsm_wal_bytes_total counter\n")
	p("urpsm_wal_bytes_total %d\n", st.WALBytes)
	p("# HELP urpsm_wal_syncs_total WAL group commits (one fsync per admission batch).\n")
	p("# TYPE urpsm_wal_syncs_total counter\n")
	p("urpsm_wal_syncs_total %d\n", st.WALSyncs)
	p("# HELP urpsm_wal_checkpoints_total Durable snapshot checkpoints taken (startup included).\n")
	p("# TYPE urpsm_wal_checkpoints_total counter\n")
	p("urpsm_wal_checkpoints_total %d\n", st.WALCheckpoints)
	p("# HELP urpsm_wal_recovered_records WAL records replayed at the last startup.\n")
	p("# TYPE urpsm_wal_recovered_records gauge\n")
	p("urpsm_wal_recovered_records %d\n", st.WALRecovered)
	p("# HELP urpsm_wal_torn_bytes Torn tail bytes discarded at the last startup.\n")
	p("# TYPE urpsm_wal_torn_bytes gauge\n")
	p("urpsm_wal_torn_bytes %d\n", st.WALTornBytes)
	p("# HELP urpsm_wal_size_bytes Live segment size since the last checkpoint.\n")
	p("# TYPE urpsm_wal_size_bytes gauge\n")
	p("urpsm_wal_size_bytes %d\n", st.WALSizeBytes)
	p("# HELP urpsm_request_latency_milliseconds Admission-to-decision latency over recent requests.\n")
	p("# TYPE urpsm_request_latency_milliseconds summary\n")
	p("urpsm_request_latency_milliseconds{quantile=\"0.5\"} %g\n", st.LatencyMs.P50)
	p("urpsm_request_latency_milliseconds{quantile=\"0.95\"} %g\n", st.LatencyMs.P95)
	p("urpsm_request_latency_milliseconds{quantile=\"0.99\"} %g\n", st.LatencyMs.P99)
	version := s.cfg.Version
	if version == "" {
		version = "dev"
	}
	p("# HELP urpsm_build_info Build and configuration identity; value is always 1.\n")
	p("# TYPE urpsm_build_info gauge\n")
	p("urpsm_build_info{version=%q,go=%q,oracle=%q,algorithm=%q} 1\n",
		version, runtime.Version(), st.Oracle, st.Algorithm)
	p("# HELP urpsm_graph_vertices Road-network vertex count.\n")
	p("# TYPE urpsm_graph_vertices gauge\n")
	p("urpsm_graph_vertices %d\n", s.cfg.Graph.NumVertices())
	p("# HELP urpsm_graph_edges Road-network edge count.\n")
	p("# TYPE urpsm_graph_edges gauge\n")
	p("urpsm_graph_edges %d\n", s.cfg.Graph.NumEdges())
	p("# HELP urpsm_trace_events Flight-recorder events retained (0 = tracing disabled).\n")
	p("# TYPE urpsm_trace_events gauge\n")
	p("urpsm_trace_events %d\n", st.TraceEvents)
	s.histPlan.WriteProm(w, "urpsm_plan_seconds",
		"Planner wall time per request (both phases); observed only while tracing is enabled.")
	s.histFlush.WriteProm(w, "urpsm_batch_flush_seconds",
		"Admission batch flush wall time (plan + WAL + ack for the whole batch).")
	s.histWALSync.WriteProm(w, "urpsm_wal_sync_seconds",
		"WAL group-commit fsync wall time.")
	s.histAck.WriteProm(w, "urpsm_admit_to_ack_seconds",
		"Admission-to-acknowledgment latency per request.")
}
