package serve

// Golden fixtures pin the /v1 wire formats and the snapshot schema
// documented in FORMATS.md §5. Regenerate after a deliberate format
// change with:
//
//	go test ./internal/serve -run Golden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
)

var update = flag.Bool("update", false, "rewrite golden files")

func canonicalWorker() *core.Worker {
	return &core.Worker{
		ID:       3,
		Capacity: 4,
		Traveled: 845.25,
		Route: core.Route{
			Loc:     17,
			Now:     1200,
			Onboard: 1,
			Stops: []core.Stop{
				{Vertex: 42, Kind: core.Pickup, Req: 7, Cap: 2, DDL: 1500.5},
				{Vertex: 9, Kind: core.Dropoff, Req: 7, Cap: 2, DDL: 1900},
				{Vertex: 23, Kind: core.Dropoff, Req: 5, Cap: 1, DDL: 2100},
			},
			Arr: []float64{1290.25, 1480, 1660.75},
		},
	}
}

// snapshotWorker is canonicalWorker renumbered to ID 0: a snapshot's
// fleet must be the dense ID range 0..n-1.
func snapshotWorker() core.WorkerState {
	w := canonicalWorker()
	w.ID = 0
	return core.NewWorkerState(w)
}

func goldenCases() map[string]any {
	id := int32(7)
	release := 1200.0
	return map[string]any{
		"request.json": Request{
			ID: &id, Origin: 42, Dest: 9, Release: &release,
			Deadline: 1900, Penalty: 320.5, Capacity: 2,
		},
		"decision.json": Decision{
			ID: 7, Accepted: true, Worker: 3, Delta: 182.5,
			PickupETA: 1290.25, DropoffETA: 1480, SimTime: 1200,
			Batch: 12, WaitMs: 3.25,
		},
		"route.json": core.NewWorkerState(canonicalWorker()),
		"stats.json": Stats{
			Algorithm: "pruneGreedyDP", Oracle: "hub", Workers: 60,
			SimTime: 1200, Requests: 250, Accepted: 231, Rejected: 19,
			ServedRate: 0.924, TotalDistance: 98213.5, PenaltySum: 5120,
			UnifiedCost: 103333.5, Completions: 180, LateArrivals: 0,
			Batches: 40, MaxBatch: 17, LateAdmissions: 0, Pending: 2,
			DistQueries:  48211,
			TrafficEpoch: 2, TrafficUpdates: 2, InfeasibleStops: 1,
			OracleRebuilds: 2, OracleCustomizations: 2, LastRebuildMs: 184.75,
			LatencyMs: LatencyMs{P50: 2.1, P95: 6.4, P99: 11.9},
		},
		"traffic_request.json": TrafficRequest{
			At: &trafficAt,
			Updates: []roadnet.TrafficUpdate{
				{Factor: 1.5},
				{Factor: 2.5, Class: "motorway", BBox: []float64{0, 0, 4000, 4000}},
				{Factor: 1.8, Edges: [][2]int64{{17, 42}}},
			},
		},
		"traffic_result.json": TrafficResult{
			Epoch: 2, SimTime: 1200, ChangedEdges: 311,
			RoutesRepaired: 41, InfeasibleStops: 1,
		},
		"snapshot.json": Snapshot{
			Format: SnapshotFormat, Version: SnapshotVersion,
			SimTime: 1200, Epoch: 1, NextID: 250, Accepted: 231, Rejected: 19,
			PenaltySum: 5120, Batches: 40, MaxBatch: 17, LateAdmissions: 0,
			Completions: 180, LateArrivals: 0, InfeasibleStops: 1,
			Workers: []core.WorkerState{snapshotWorker()},
			Traffic: [][]roadnet.TrafficUpdate{{{Factor: 1.5, Class: "motorway"}}},
		},
	}
}

// trafficAt is the At pointer of the traffic_request golden.
var trafficAt = 1180.0

func TestGoldenWireFormats(t *testing.T) {
	for name, v := range goldenCases() {
		path := filepath.Join("testdata", name)
		got, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire format drifted from golden fixture (regenerate with -update if deliberate)\ngot:\n%s\nwant:\n%s",
				name, got, want)
		}
	}
}

// TestGoldenSnapshotDecodes checks the checked-in snapshot fixture is a
// valid, restorable snapshot — the fixture doubles as documentation.
func TestGoldenSnapshotDecodes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	workers, err := sn.Restore(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 1 || workers[0].Capacity != 4 {
		t.Fatalf("restored fleet: %+v", workers)
	}
	// Re-encoding the decoded snapshot reproduces the fixture byte for
	// byte — the format is round-trip stable.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Error("snapshot fixture is not byte-stable under decode/encode")
	}
}
