package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/wal"
	"repro/internal/workload"
)

// newWALServer starts a server logging to dir. The oracle is shared so a
// crash/restart cycle does not pay a rebuild (and, more importantly, so
// replay equivalence is checked against identical distances).
func newWALServer(t *testing.T, g *roadnet.Graph, inst *workload.Instance,
	oracle shortest.Oracle, dir string, mut func(*Config)) *Server {
	t.Helper()
	return newTestServer(t, g, inst, func(c *Config) {
		c.Oracle = oracle
		c.WALDir = dir
		c.CheckpointBytes = -1 // explicit checkpoints only, unless mut overrides
		if mut != nil {
			mut(c)
		}
	})
}

// lockstep streams requests one at a time, collecting decisions.
func lockstep(t *testing.T, s *Server, reqs []*core.Request, got map[int32]Decision) {
	t.Helper()
	for _, r := range reqs {
		cp := *r
		done, err := s.submit(&cp, false)
		if err != nil {
			t.Fatal(err)
		}
		d := <-done
		got[d.ID] = d
	}
}

// servePairs streams requests two at a time, waiting for both decisions
// before the next pair — with BatchSize 2 and an hour-long window every
// commit group holds exactly two requests, which keeps the WAL layout
// deterministic for the truncation tests.
func servePairs(t *testing.T, s *Server, reqs []*core.Request, got map[int32]Decision) {
	t.Helper()
	for i := 0; i+1 < len(reqs); i += 2 {
		r1, r2 := *reqs[i], *reqs[i+1]
		c1, err := s.submit(&r1, false)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := s.submit(&r2, false)
		if err != nil {
			t.Fatal(err)
		}
		d1, d2 := <-c1, <-c2
		got[d1.ID], got[d2.ID] = d1, d2
	}
}

func sameDecision(a, b Decision) bool {
	return a.ID == b.ID && a.Accepted == b.Accepted && a.Worker == b.Worker &&
		math.Float64bits(a.Delta) == math.Float64bits(b.Delta) &&
		math.Float64bits(a.SimTime) == math.Float64bits(b.SimTime)
}

// TestWALCrashRecoveryEquivalence is the in-process tentpole check: a
// server that is crashed twice mid-workload (once before and once after
// a traffic epoch advance) and recovered from its WAL produces exactly
// the decisions and final state of an uninterrupted server.
func TestWALCrashRecoveryEquivalence(t *testing.T) {
	g, inst := testInstance(t)
	reqs := sortedRequests(inst)
	oracle := shortest.BuildHubLabels(g)
	h := len(reqs) / 2
	q := h / 2
	trafficAt := reqs[h].Release
	ups := []roadnet.TrafficUpdate{{Factor: 1.7}}

	// Reference: one uninterrupted WAL-less server over the same stream.
	ref := newTestServer(t, g, inst, func(c *Config) { c.Oracle = oracle })
	want := make(map[int32]Decision)
	lockstep(t, ref, reqs[:h], want)
	if _, err := ref.ApplyTraffic(&trafficAt, ups); err != nil {
		t.Fatal(err)
	}
	lockstep(t, ref, reqs[h:], want)

	// Crash run: same stream with kill -9 (Abort) at two points.
	dir := t.TempDir()
	got := make(map[int32]Decision)
	s := newWALServer(t, g, inst, oracle, dir, nil)
	lockstep(t, s, reqs[:q], got)
	s.Abort()

	s = newWALServer(t, g, inst, oracle, dir, nil)
	if st := s.Stats(); st.WALRecovered == 0 {
		t.Fatal("first recovery replayed nothing")
	}
	// The crashed-ack window: the last decided request must be resolvable.
	last := got[int32(reqs[q-1].ID)]
	if d, ok := s.DecisionFor(last.ID); !ok || !sameDecision(d, last) {
		t.Fatalf("DecisionFor(%d) after recovery: ok=%v d=%+v want %+v", last.ID, ok, d, last)
	}
	lockstep(t, s, reqs[q:h], got)
	if _, err := s.ApplyTraffic(&trafficAt, ups); err != nil {
		t.Fatal(err)
	}
	lockstep(t, s, reqs[h:h+q], got)
	s.Abort()

	s = newWALServer(t, g, inst, oracle, dir, nil)
	if st := s.Stats(); st.WALRecovered == 0 || st.TrafficEpoch != 1 {
		t.Fatalf("second recovery: recovered=%d epoch=%d", s.Stats().WALRecovered, s.Stats().TrafficEpoch)
	}
	lockstep(t, s, reqs[h+q:], got)

	checkEquivalence(t, got, want)
	rst, cst := ref.Stats(), s.Stats()
	if rst.Accepted != cst.Accepted || rst.Rejected != cst.Rejected ||
		math.Float64bits(rst.PenaltySum) != math.Float64bits(cst.PenaltySum) ||
		math.Float64bits(rst.TotalDistance) != math.Float64bits(cst.TotalDistance) ||
		math.Float64bits(rst.SimTime) != math.Float64bits(cst.SimTime) ||
		rst.Completions != cst.Completions || rst.LateArrivals != cst.LateArrivals {
		t.Fatalf("final state diverged:\nref   %+v\ncrash %+v", rst, cst)
	}

	// The at-rest invariant: after a boot the state is checkpointed and
	// the log is empty (just a header).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, wal.SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) != wal.HeaderSize {
		t.Fatalf("segment is %d bytes after shutdown checkpoint, want bare header (%d)", len(seg), wal.HeaderSize)
	}
	f, err := os.Open(filepath.Join(dir, wal.CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Accepted+sn.Rejected != len(reqs) {
		t.Fatalf("final checkpoint decided %d, want %d", sn.Accepted+sn.Rejected, len(reqs))
	}
}

// TestWALCheckpointWindow checks that a checkpoint truncates the log and
// shrinks the decided window to the final commit group.
func TestWALCheckpointWindow(t *testing.T) {
	g, inst := testInstance(t)
	reqs := sortedRequests(inst)
	oracle := shortest.BuildHubLabels(g)
	dir := t.TempDir()
	s := newWALServer(t, g, inst, oracle, dir, func(c *Config) {
		c.BatchWindow = time.Hour
		c.BatchSize = 2
	})
	got := make(map[int32]Decision)
	servePairs(t, s, reqs[:6], got)

	res, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Startup checkpoint + this one.
	if res.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2", res.Checkpoints)
	}
	// 3 groups of (1 batch + 2 admissions + 2 decisions) + the checkpoint
	// record itself.
	if res.LSN != 16 {
		t.Fatalf("checkpoint lsn = %d, want 16", res.LSN)
	}
	if st := s.Stats(); st.WALSizeBytes != wal.HeaderSize {
		t.Fatalf("segment not truncated: %d bytes", st.WALSizeBytes)
	}
	// Decided window: final group retained, earlier groups pruned.
	for _, r := range reqs[4:6] {
		if _, ok := s.DecisionFor(int32(r.ID)); !ok {
			t.Fatalf("final-group decision %d pruned by checkpoint", r.ID)
		}
	}
	for _, r := range reqs[:4] {
		if _, ok := s.DecisionFor(int32(r.ID)); ok {
			t.Fatalf("pre-checkpoint decision %d still retained", r.ID)
		}
	}

	// Crash after two more requests: recovery replays exactly one group.
	servePairs(t, s, reqs[6:8], got)
	s.Abort()
	s = newWALServer(t, g, inst, oracle, dir, nil)
	if st := s.Stats(); st.WALRecovered != 5 || st.Requests != 8 {
		t.Fatalf("recovered=%d requests=%d, want 5 and 8", st.WALRecovered, st.Requests)
	}
	for _, r := range reqs[6:8] {
		d, ok := s.DecisionFor(int32(r.ID))
		if !ok || !sameDecision(d, got[int32(r.ID)]) {
			t.Fatalf("replayed decision %d: ok=%v %+v want %+v", r.ID, ok, d, got[int32(r.ID)])
		}
	}
}

// TestWALRestoresULPBackwardArrival checks that a server can restart
// from a checkpoint of any state it holds: incremental arrival
// maintenance can leave a stop a few ULP before the previous one
// (observed at 9929.119830771253 → 9929.119830771251), and recovery
// must restore that route bit for bit instead of refusing it.
func TestWALRestoresULPBackwardArrival(t *testing.T) {
	g, inst := testInstance(t)
	oracle := shortest.BuildHubLabels(g)
	inst.Workers = cloneWorkers(inst.Workers)
	w := inst.Workers[0]
	w.Capacity = max(w.Capacity, 2)
	rt := &w.Route
	v := roadnet.VertexID((int(rt.Loc) + 1) % g.NumVertices())
	first := rt.Now + oracle.Dist(rt.Loc, v)
	second := math.Nextafter(math.Nextafter(first, 0), 0)
	rt.Onboard = 2
	rt.Stops = []core.Stop{
		{Vertex: v, Kind: core.Dropoff, Req: 1 << 20, Cap: 1, DDL: first + 1e5},
		{Vertex: v, Kind: core.Dropoff, Req: 1<<20 + 1, Cap: 1, DDL: first + 1e5},
	}
	rt.Arr = []float64{first, second}

	dir := t.TempDir()
	s := newWALServer(t, g, inst, oracle, dir, nil)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	s = newWALServer(t, g, inst, oracle, dir, nil)
	got, ok := s.WorkerRoute(w.ID)
	if !ok {
		t.Fatal("restored server lost worker 0")
	}
	if len(got.Route.Arr) != 2 || math.Float64bits(got.Route.Arr[0]) != math.Float64bits(first) ||
		math.Float64bits(got.Route.Arr[1]) != math.Float64bits(second) {
		t.Fatalf("restored arrivals %v, want [%v %v]", got.Route.Arr, first, second)
	}
}

// expectedTail walks a (possibly truncated) segment the way recovery
// does and reports what must survive: decision IDs of complete commit
// groups, applied traffic records, and the recovered-record count.
func expectedTail(t *testing.T, data []byte) (ids []int32, traffics, applied int) {
	t.Helper()
	_, recs, _, err := wal.DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for i < len(recs) {
		switch recs[i].Type {
		case wal.TypeCheckpoint:
			i++
		case wal.TypeTraffic:
			traffics++
			applied++
			i++
		case wal.TypeBatch:
			n, sheds, err := wal.DecodeBatch(recs[i].Body)
			if err != nil {
				t.Fatal(err)
			}
			size := 1 + sheds + 2*n
			if i+size > len(recs) {
				return ids, traffics, applied
			}
			for k := 0; k < sheds; k++ {
				sh, err := wal.DecodeShed(recs[i+1+k].Body)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, sh.ID)
			}
			for k := 0; k < n; k++ {
				d, err := wal.DecodeDecision(recs[i+sheds+2+2*k].Body)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, d.ID)
			}
			applied += size
			i += size
		default:
			t.Fatalf("unexpected record type %d", recs[i].Type)
		}
	}
	return ids, traffics, applied
}

// TestWALTornWritePrefixes is the torn-write property test: for every
// record boundary and mid-record byte prefix of a multi-group WAL, the
// server recovers to exactly the state after the last complete commit
// group — nothing more, nothing less, no errors.
func TestWALTornWritePrefixes(t *testing.T) {
	if testing.Short() {
		t.Skip("dozens of recoveries; skipped in -short")
	}
	g, inst := testInstance(t)
	reqs := sortedRequests(inst)
	oracle := shortest.BuildHubLabels(g)
	dir := t.TempDir()
	s := newWALServer(t, g, inst, oracle, dir, func(c *Config) {
		c.BatchWindow = time.Hour
		c.BatchSize = 2
	})
	got := make(map[int32]Decision)
	servePairs(t, s, reqs[:4], got)
	trafficAt := reqs[4].Release
	if _, err := s.ApplyTraffic(&trafficAt, []roadnet.TrafficUpdate{{Factor: 1.5}}); err != nil {
		t.Fatal(err)
	}
	servePairs(t, s, reqs[4:6], got)
	s.Abort()

	full, err := os.ReadFile(filepath.Join(dir, wal.SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, wal.CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries via the scanner, then every boundary and every
	// midpoint between adjacent boundaries becomes a truncation point.
	sc, err := wal.NewScanner(full)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{wal.HeaderSize}
	for sc.Next() {
		prev := cuts[len(cuts)-1]
		if mid := prev + (sc.Offset()-prev)/2; mid > prev {
			cuts = append(cuts, mid)
		}
		cuts = append(cuts, sc.Offset())
	}
	if sc.Offset() != len(full) {
		t.Fatalf("fixture WAL has a torn tail already: clean %d of %d", sc.Offset(), len(full))
	}

	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			trunc := full[:cut]
			wantIDs, wantTraffics, wantApplied := expectedTail(t, trunc)
			cdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cdir, wal.CheckpointName), ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, wal.SegmentName), trunc, 0o644); err != nil {
				t.Fatal(err)
			}
			rs := newWALServer(t, g, inst, oracle, cdir, nil)
			st := rs.Stats()
			if st.WALRecovered != wantApplied {
				t.Fatalf("recovered %d records, want %d", st.WALRecovered, wantApplied)
			}
			if st.Requests != len(wantIDs) {
				t.Fatalf("recovered %d decisions, want %d", st.Requests, len(wantIDs))
			}
			if int(st.TrafficEpoch) != wantTraffics {
				t.Fatalf("recovered epoch %d, want %d", st.TrafficEpoch, wantTraffics)
			}
			for _, id := range wantIDs {
				d, ok := rs.DecisionFor(id)
				if !ok || !sameDecision(d, got[id]) {
					t.Fatalf("decision %d after torn recovery: ok=%v %+v want %+v", id, ok, d, got[id])
				}
			}
		})
	}
}

// TestSaveSnapshotFileDurability checks the atomic-write contract: the
// target directory never holds anything but the final file (no temp
// litter, even across an overwrite) and the content round-trips.
func TestSaveSnapshotFileDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, wal.CheckpointName)
	sn := &Snapshot{Format: SnapshotFormat, Version: SnapshotVersion, SimTime: 42, NextID: 7}
	if err := SaveSnapshotFile(path, sn); err != nil {
		t.Fatal(err)
	}
	sn.SimTime = 99
	if err := SaveSnapshotFile(path, sn); err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			names = append(names, filepath.Base(p))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != wal.CheckpointName {
		t.Fatalf("directory after SaveSnapshotFile: %v, want only %s", names, wal.CheckpointName)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.SimTime != 99 || back.NextID != 7 {
		t.Fatalf("round-trip: %+v", back)
	}
}

// mutateJSON applies f to a parsed JSON object and re-serializes it.
func mutateJSON(t *testing.T, data []byte, f func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	f(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rebuildSegment re-frames records into a fresh segment image.
func rebuildSegment(start uint64, recs []wal.Record) []byte {
	out := wal.AppendHeader(nil, start)
	for _, r := range recs {
		out = wal.AppendRecord(out, r.LSN, r.Type, r.Body)
	}
	return out
}

// TestWALRecoveryErrors corrupts a real WAL directory in targeted ways
// and asserts each failure mode surfaces as a diagnosable error rather
// than silent misrecovery: version skew, corrupt epoch history, partial
// traffic batches, corrupt workers, framing damage, lost checkpoints and
// replay divergence.
func TestWALRecoveryErrors(t *testing.T) {
	g, inst := testInstance(t)
	reqs := sortedRequests(inst)
	oracle := shortest.BuildHubLabels(g)
	dir := t.TempDir()
	s := newWALServer(t, g, inst, oracle, dir, func(c *Config) {
		c.BatchWindow = time.Hour
		c.BatchSize = 2
	})
	got := make(map[int32]Decision)
	servePairs(t, s, reqs[:2], got)
	trafficAt := reqs[2].Release
	if _, err := s.ApplyTraffic(&trafficAt, []roadnet.TrafficUpdate{{Factor: 1.5}}); err != nil {
		t.Fatal(err)
	}
	servePairs(t, s, reqs[2:4], got)
	s.Abort()

	seg, err := os.ReadFile(filepath.Join(dir, wal.SegmentName))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, wal.CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	start, recs, clean, err := wal.DecodeSegment(seg)
	if err != nil || clean != len(seg) {
		t.Fatalf("fixture segment: clean=%d err=%v", clean, err)
	}

	// Divergence fixture: flip the accepted byte of the first decision.
	divergent := make([]wal.Record, len(recs))
	copy(divergent, recs)
	for i, r := range recs {
		if r.Type == wal.TypeDecision {
			body := append([]byte(nil), r.Body...)
			body[4] ^= 1
			divergent[i] = wal.Record{LSN: r.LSN, Type: r.Type, Body: body}
			break
		}
	}
	// Orphan-pair fixture: an admission record with no enclosing group.
	orphanSeg := rebuildSegment(start, []wal.Record{{LSN: start, Type: wal.TypeAdmission, Body: recs[1].Body}})
	badMagic := append([]byte(nil), seg...)
	copy(badMagic, "NOTAWAL!")

	for _, tc := range []struct {
		name string
		ckpt []byte // nil: keep original
		seg  []byte // nil: keep original
		want string
	}{
		{"checkpoint version skew",
			mutateJSON(t, ckpt, func(m map[string]any) { m["version"] = 99 }), nil,
			"unsupported snapshot version"},
		{"corrupt epoch history",
			mutateJSON(t, ckpt, func(m map[string]any) { m["epoch"] = 5 }), nil,
			"traffic batches"},
		{"partial traffic batch",
			mutateJSON(t, ckpt, func(m map[string]any) {
				m["epoch"] = 1
				m["traffic"] = []any{[]any{}}
			}), nil,
			"traffic batch 0 is empty"},
		{"corrupt worker",
			mutateJSON(t, ckpt, func(m map[string]any) {
				ws := m["workers"].([]any)
				ws[0].(map[string]any)["route"].(map[string]any)["loc"] = 99999999
			}), nil,
			"worker"},
		{"segment bad magic", nil, badMagic, "bad magic"},
		// A segment starting past LSN 1 with no checkpoint means the
		// checkpoint covering its prefix is gone.
		{"checkpoint lost", []byte("DELETE"), rebuildSegment(999, nil), "checkpoint lost or regressed"},
		{"replay divergence", nil, rebuildSegment(start, divergent), "diverged"},
		{"pair outside group", nil, orphanSeg, "outside a commit group"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cdir := t.TempDir()
			ck, sg := tc.ckpt, tc.seg
			if ck == nil {
				ck = ckpt
			}
			if sg == nil {
				sg = seg
			}
			if string(ck) != "DELETE" {
				if err := os.WriteFile(filepath.Join(cdir, wal.CheckpointName), ck, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(cdir, wal.SegmentName), sg, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Graph: g, Workers: inst.Workers, Oracle: oracle, OracleKind: "hub",
				BatchWindow: time.Millisecond, BatchSize: 16, WALDir: cdir,
			}
			_, err := NewServer(cfg)
			if err == nil {
				t.Fatal("expected recovery error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Config conflict: WALDir and Snapshot together are refused.
	if _, err := NewServer(Config{
		Graph: g, Workers: inst.Workers, Oracle: oracle,
		WALDir: t.TempDir(), Snapshot: &Snapshot{Format: SnapshotFormat, Version: SnapshotVersion},
	}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("WALDir+Snapshot: %v", err)
	}
}

func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func httpPost(url string) (int, error) {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func httpGetStatus(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func postJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestWALHTTPEndpoints smoke-tests the WAL-specific API surface:
// /v1/decisions/{id}, /v1/checkpoint and the wal_* metrics.
func TestWALHTTPEndpoints(t *testing.T) {
	g, inst := testInstance(t)
	oracle := shortest.BuildHubLabels(g)

	// Without a WAL: checkpoint conflicts, decisions are never retained.
	plain := newTestServer(t, g, inst, func(c *Config) { c.Oracle = oracle })
	tsPlain := newHTTPServer(t, plain)
	resp, err := httpPost(tsPlain + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	if resp != 409 {
		t.Fatalf("checkpoint without wal: status %d, want 409", resp)
	}

	dir := t.TempDir()
	s := newWALServer(t, g, inst, oracle, dir, nil)
	ts := newHTTPServer(t, s)
	reqs := sortedRequests(inst)
	d := postRequest(t, ts, reqs[0])

	var back Decision
	getJSON(t, fmt.Sprintf("%s/v1/decisions/%d", ts, d.ID), &back)
	if !sameDecision(back, d) {
		t.Fatalf("decision endpoint: %+v want %+v", back, d)
	}
	if code, err := httpGetStatus(ts + "/v1/decisions/999999"); err != nil || code != 404 {
		t.Fatalf("unknown decision: status %d err %v", code, err)
	}
	if code, err := httpGetStatus(ts + "/v1/decisions/bogus"); err != nil || code != 400 {
		t.Fatalf("bad decision id: status %d err %v", code, err)
	}

	var ck CheckpointResult
	postJSON(t, ts+"/v1/checkpoint", &ck)
	if ck.Checkpoints != 2 {
		t.Fatalf("checkpoint result: %+v", ck)
	}

	var st Stats
	getJSON(t, ts+"/v1/stats", &st)
	if !st.WALEnabled || st.WALRecords == 0 || st.WALSyncs == 0 || st.WALCheckpoints != 2 {
		t.Fatalf("wal stats: %+v", st)
	}
	body := httpGetBody(t, ts+"/metrics")
	for _, want := range []string{
		"urpsm_wal_enabled 1", "urpsm_wal_records_total", "urpsm_wal_bytes_total",
		"urpsm_wal_syncs_total", "urpsm_wal_checkpoints_total 2",
		"urpsm_wal_recovered_records", "urpsm_wal_size_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
