package main

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Open-loop server settings and the SLO the ladder is judged by.
const (
	ladderWindow   = 5 * time.Millisecond
	ladderBatch    = 64
	ladderMaxQueue = 256
	sloLimitMs     = 100
	sloShare       = 0.99
)

// rungRun is one open-loop phase: a fresh server offered reqs at a fixed
// mean rate.
type rungRun struct {
	rate float64
	*served
	due     []time.Time // per call, when it was due to be sent
	lateMs  []float64   // generator lateness per call
	latency []float64   // per answered (200) call, from its due time
	ok      int         // HTTP 200
	shed    int         // HTTP 429
	onTime  int         // HTTP 200 within sloLimitMs of due
	accept  int         // accepted decisions among the 200s
}

// runRung replays reqs on the trace's own release schedule compressed to a
// mean rate of rate requests per second, multiplexed over one HTTP/2
// cleartext connection. Each request is sent from its own goroutine so a
// slow answer never delays the next send; latency is timed from the due
// time, so a stalled generator is charged to the requests it delayed.
func runRung(workdir string, e *env, reqs []*core.Request, rate float64, traced bool) (*rungRun, error) {
	cfg := serve.Config{BatchWindow: ladderWindow, BatchSize: ladderBatch, MaxQueue: ladderMaxQueue}
	if traced {
		cfg.TraceEvents = traceCapacity(len(reqs), 0)
	}
	ls, err := startServer(workdir, e, cfg, true)
	if err != nil {
		return nil, err
	}
	client := newH2CClient()
	defer client.CloseIdleConnections()
	// Open the connection before the clock starts.
	if _, err := getStats(client, ls.url); err != nil {
		ls.stop()
		return nil, err
	}

	n := len(reqs)
	simPerSec := 1.0
	if n > 1 {
		simPerSec = (reqs[n-1].Release - reqs[0].Release) * rate / float64(n-1)
	}
	out := &rungRun{rate: rate, served: &served{decisions: make(map[int32]serve.Decision, n)}}
	calls := make([]call, n)
	decs := make([]serve.Decision, n)
	errs := make([]error, n)
	out.due = make([]time.Time, n)
	out.lateMs = make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i, r := range reqs {
		due := start.Add(time.Duration((r.Release - reqs[0].Release) / simPerSec * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		out.due[i] = due
		out.lateMs[i] = latencyMs(due, sent)
		calls[i] = call{req: int64(r.ID), sent: sent}
		body := wireRequest(r)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			calls[i].status, errs[i] = postJSON(client, ls.url+"/v1/requests", body, &decs[i])
			calls[i].done = time.Now()
		}(i)
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.calls = calls
	out.attempted = n
	for i, c := range calls {
		switch {
		case errs[i] != nil:
			out.fail("request %d: %v", c.req, errs[i])
		case c.status == http.StatusOK:
			out.ok++
			out.decisions[decs[i].ID] = decs[i]
			lat := latencyMs(out.due[i], c.done)
			out.latency = append(out.latency, lat)
			if lat <= sloLimitMs {
				out.onTime++
			}
			if decs[i].Accepted {
				out.accept++
			}
		case c.status == http.StatusTooManyRequests:
			out.shed++
		}
	}
	if err := out.collect(ls, client, len(e.workers)); err != nil {
		ls.stop()
		return nil, err
	}
	if err := ls.stop(); err != nil {
		return nil, err
	}
	return out, nil
}
