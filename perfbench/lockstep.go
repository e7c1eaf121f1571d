package main

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/trace"
)

// call is one client request as the client saw it.
type call struct {
	req        int64 // request ID, -1 for a traffic update
	sent, done time.Time
	status     int
}

func (c call) ms() float64 { return float64(c.done.Sub(c.sent).Nanoseconds()) / 1e6 }

// served is what one server run left behind for the checks and metrics.
type served struct {
	calls     []call
	decisions map[int32]serve.Decision
	stats     serve.Stats
	routes    []core.WorkerState
	events    []trace.Event // flight recorder, when traced
	evicted   bool          // the recorder overflowed and lost events
	attempted int           // request POSTs sent
	failed    int           // transport errors and unexpected statuses
	errs      []string
	start     time.Time     // first send
	wall      time.Duration // first send to last response
	heapMB    float64       // live heap after a forced GC, server still up
	conns     int64         // client connections the server accepted
	traffic   int           // traffic updates applied
}

func (s *served) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// traceCapacity sizes the flight recorder so nothing is evicted: at most
// admit, plan_start, plan, wal_sync, ack and flush per request, plus
// traffic epochs and oracle events.
func traceCapacity(requests, events int) int { return 8*requests + 4*events + 1024 }

// runLockstep starts a fresh server and replays reqs over one keep-alive
// connection, each request sent only after the previous decision arrived
// (BatchSize 1, so each flushes alone). Traffic events are posted before
// the first request released at or after their time — where the offline
// engine's timeline applies them.
func runLockstep(workdir string, e *env, reqs []*core.Request, pool int, prof *roadnet.TrafficProfile, traced bool) (*served, error) {
	var events []roadnet.TrafficEvent
	if prof != nil {
		events = prof.Events
	}
	cfg := serve.Config{BatchSize: 1, Pool: pool}
	if traced {
		cfg.TraceEvents = traceCapacity(len(reqs), len(events))
	}
	ls, err := startServer(workdir, e, cfg, false)
	if err != nil {
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	out := &served{decisions: make(map[int32]serve.Decision, len(reqs)),
		calls: make([]call, 0, len(reqs)+len(events))}

	next := 0
	start := time.Now()
	out.start = start
	for _, r := range reqs {
		for next < len(events) && events[next].At <= r.Release {
			ev := events[next]
			at := ev.At
			body := mustJSON(serve.TrafficRequest{At: &at, Updates: ev.Updates})
			c := call{req: -1, sent: time.Now()}
			var tr serve.TrafficResult
			status, err := postJSON(client, ls.url+"/v1/traffic", body, &tr)
			c.done, c.status = time.Now(), status
			out.calls = append(out.calls, c)
			if err != nil || status != http.StatusOK {
				out.fail("traffic event at %v: status %d: %v", at, status, err)
				break
			}
			out.traffic++
			next++
		}
		if out.failed > 0 {
			break
		}
		c := call{req: int64(r.ID), sent: time.Now()}
		var d serve.Decision
		status, err := postJSON(client, ls.url+"/v1/requests", wireRequest(r), &d)
		c.done, c.status = time.Now(), status
		out.attempted++
		out.calls = append(out.calls, c)
		if err != nil || status != http.StatusOK {
			// Every later decision would diverge from the reference.
			out.fail("request %d: status %d: %v", r.ID, status, err)
			break
		}
		out.decisions[d.ID] = d
	}
	out.wall = time.Since(start)
	if err := out.collect(ls, client, len(e.workers)); err != nil {
		ls.stop()
		return nil, err
	}
	if err := ls.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	return out, nil
}

// collect reads the server's counters, routes and flight recorder.
func (s *served) collect(ls *liveServer, client *http.Client, workers int) error {
	var err error
	if s.stats, err = getStats(client, ls.url); err != nil {
		return err
	}
	if s.routes, err = ls.routes(workers); err != nil {
		return err
	}
	s.heapMB = heapMB()
	s.conns = ls.conns.Load()
	if rec := ls.srv.TraceRecorder(); rec != nil {
		s.evicted = rec.Len() >= rec.Capacity()
		s.events = rec.Events(make([]trace.Event, 0, rec.Len()))
	}
	return nil
}

// requestMs returns the client round trips of the decision requests.
func (s *served) requestMs() []float64 {
	out := make([]float64, 0, len(s.calls))
	for _, c := range s.calls {
		if c.req >= 0 {
			out = append(out, c.ms())
		}
	}
	return out
}

// stepsMs splits the replay's wall time into one step per call: from the
// previous call's answer (the first send, for the first call) to the
// call's own answer. The steps sum to the wall time, and the k-th step of
// every replay of the same stream does the same work.
func (s *served) stepsMs() []float64 {
	out := make([]float64, len(s.calls))
	prev := s.start
	for i, c := range s.calls {
		out[i] = float64(c.done.Sub(prev).Nanoseconds()) / 1e6
		prev = c.done
	}
	return out
}

// trafficMs returns the client round trips of the traffic updates.
func (s *served) trafficMs() []float64 {
	var out []float64
	for _, c := range s.calls {
		if c.req < 0 {
			out = append(out, c.ms())
		}
	}
	return out
}
