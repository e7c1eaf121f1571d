package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/trace"
)

// span is one interval of the traced run: a call the benchmark made, or
// a flight-recorder event turned into an interval by its WallNs (the
// event's end) and DurNs.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req"` // request ID, -1 when not request-scoped
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct{ spans []span }

func (l *spanLog) add(name string, parent int, start, end, req int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Req: req})
	return id
}

// around records a span around f.
func (l *spanLog) around(name string, f func() error) error {
	start := time.Now().UnixNano()
	err := f()
	if l != nil {
		l.add(name, 0, start, time.Now().UnixNano(), -1)
	}
	return err
}

// selfTimes sums, per span name, the spans' durations and their self
// time: the duration minus the part of it the span's children cover.
func (l *spanLog) selfTimes() map[string]*spanTotal {
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanTotal)
	for _, s := range l.spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		t.count++
		t.totalNs += s.End - s.Start
		t.selfNs += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

type spanTotal struct {
	count           int
	totalNs, selfNs int64
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// window is a flight-recorder event as an interval.
func window(ev trace.Event) (start, end int64) { return ev.WallNs - ev.DurNs, ev.WallNs }

// serverLayers is what one traced server run's flight recorder and the
// client's clocks say about the serve, wal and core layers.
type serverLayers struct {
	httpMs, queueMs, flushMs, flushOtherMs, syncMs, planUs, customizeMs []float64
	batch                                                               []float64
	candidates, feasible, evaluated, pruned, dpCells                    int64
	plans, parallel, rejectBound                                        int
	rttNs, stagesNs                                                     int64 // blocking path: client round trips, and the named stages along it
}

// addServed turns one traced server run into spans and accumulates its
// layer figures. Flushes, their plans and WAL syncs become root spans;
// each client call gets the server's admit-to-ack interval as a child,
// split into the queue wait and the part spent in its flush.
func (sl *serverLayers) addServed(log *spanLog, s *served) {
	var flushes, syncs, oracles []trace.Event
	plans := make(map[int64]trace.Event)
	acks := make(map[int64]trace.Event)
	admits := make(map[int64]trace.Event)
	for _, ev := range s.events {
		switch ev.Kind {
		case trace.KindFlush:
			flushes = append(flushes, ev)
		case trace.KindWALSync:
			syncs = append(syncs, ev)
		case trace.KindOracle:
			oracles = append(oracles, ev)
		case trace.KindPlan:
			plans[ev.Req] = ev
		case trace.KindAck:
			acks[ev.Req] = ev
		case trace.KindAdmit:
			admits[ev.Req] = ev
		}
	}
	// Events are recorded in order; flush windows do not overlap (one
	// event loop), so a plan or sync belongs to the flush whose window
	// holds its end.
	flushOf := func(t int64) (trace.Event, bool) {
		i := sort.Search(len(flushes), func(i int) bool { return flushes[i].WallNs >= t })
		if i < len(flushes) {
			if fs, _ := window(flushes[i]); fs <= t {
				return flushes[i], true
			}
		}
		return trace.Event{}, false
	}
	flushID := make(map[uint64]int)
	inFlush := make(map[uint64]int64) // plan + sync time inside each flush
	for _, f := range flushes {
		fs, fe := window(f)
		flushID[f.Seq] = log.add("serve.flush", 0, fs, fe, -1)
		sl.flushMs = append(sl.flushMs, float64(f.DurNs)/1e6)
		sl.batch = append(sl.batch, float64(f.N))
	}
	for _, p := range plans {
		ps, pe := window(p)
		parent := 0
		if f, ok := flushOf(pe); ok {
			parent = flushID[f.Seq]
			inFlush[f.Seq] += p.DurNs
		}
		log.add("core.plan", parent, ps, pe, p.Req)
		sl.planUs = append(sl.planUs, float64(p.DurNs)/1e3)
		sl.plans++
		sl.candidates += int64(p.Candidates)
		sl.feasible += int64(p.Feasible)
		sl.evaluated += int64(p.Evaluated)
		sl.pruned += int64(p.Pruned)
		sl.dpCells += p.DPCells
		if p.Parallel {
			sl.parallel++
		}
		if p.Reason == "decision_lower_bound" {
			sl.rejectBound++
		}
	}
	for _, y := range syncs {
		ys, ye := window(y)
		parent := 0
		if f, ok := flushOf(ye); ok {
			parent = flushID[f.Seq]
			inFlush[f.Seq] += y.DurNs
		}
		log.add("wal.sync", parent, ys, ye, -1)
		sl.syncMs = append(sl.syncMs, float64(y.DurNs)/1e6)
	}
	for _, f := range flushes {
		sl.flushOtherMs = append(sl.flushOtherMs, float64(f.DurNs-inFlush[f.Seq])/1e6)
	}
	for _, o := range oracles {
		sl.customizeMs = append(sl.customizeMs, float64(o.DurNs)/1e6)
	}
	oi := 0
	for _, c := range s.calls {
		cs, ce := c.sent.UnixNano(), c.done.UnixNano()
		if c.req < 0 {
			id := log.add("client.traffic", 0, cs, ce, -1)
			for ; oi < len(oracles) && oracles[oi].WallNs <= ce; oi++ {
				ks, ke := window(oracles[oi])
				log.add("shortest.customize", id, ks, ke, -1)
			}
			continue
		}
		id := log.add("client.request", 0, cs, ce, c.req)
		ack, acked := acks[c.req]
		admit, admitted := admits[c.req]
		p, planned := plans[c.req]
		if !acked || !admitted || !planned {
			continue // shed: never planned, no ack event
		}
		_, pe := window(p)
		f, ok := flushOf(pe)
		if !ok {
			continue
		}
		// Each boundary is read from its own clock: the client's send and
		// receive, the admit event, the flush start and the ack event.
		// Whatever falls between them is unattributed.
		as, fs, ae := admit.WallNs, f.WallNs-f.DurNs, ack.WallNs
		aid := log.add("serve.admit_to_ack", id, as, ae, c.req)
		log.add("serve.queue_wait", aid, as, fs, c.req)
		log.add("serve.in_flush", aid, fs, ae, c.req)
		http := (ce - cs) - ack.DurNs
		sl.httpMs = append(sl.httpMs, float64(http)/1e6)
		sl.queueMs = append(sl.queueMs, float64(fs-as)/1e6)
		sl.rttNs += ce - cs
		sl.stagesNs += http + (fs - as) + (ae - fs)
	}
}

// traceSummary renders the self-time table, largest self time first.
func traceSummary(log *spanLog) string {
	totals := log.selfTimes()
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]].selfNs > totals[names[j]].selfNs })
	out := fmt.Sprintf("  %-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		t := totals[n]
		out += fmt.Sprintf("  %-22s %8d %12.3f %12.3f\n", n, t.count, float64(t.totalNs)/1e6, float64(t.selfNs)/1e6)
	}
	return out
}
