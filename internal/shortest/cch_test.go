package shortest

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

func TestCCHMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 16, 20, 15)
	cch := BuildCCH(g)
	dij := NewDijkstra(g)
	rng := rand.New(rand.NewSource(42))
	n := g.NumVertices()
	for q := 0; q < 500; q++ {
		s := roadnet.VertexID(rng.Intn(n))
		tt := roadnet.VertexID(rng.Intn(n))
		want := dij.Dist(s, tt)
		got := cch.Dist(s, tt)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("CCH (%d,%d)=%v want %v", s, tt, got, want)
		}
	}
}

func TestCCHSelfAndDisconnected(t *testing.T) {
	g := testGraph(t, 6, 6, 3)
	cch := BuildCCH(g)
	for v := 0; v < g.NumVertices(); v += 5 {
		if d := cch.Dist(roadnet.VertexID(v), roadnet.VertexID(v)); d != 0 {
			t.Fatalf("self distance %v", d)
		}
	}
	b := roadnet.NewBuilder(4, 2)
	b.AddVertex(geo.Point{})
	b.AddVertex(geo.Point{X: 10})
	b.AddVertex(geo.Point{X: 1000})
	b.AddVertex(geo.Point{X: 1010})
	b.AddEdge(0, 1, 10, geo.Residential)
	b.AddEdge(2, 3, 10, geo.Residential)
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cch2 := BuildCCH(g2)
	if d := cch2.Dist(0, 2); !math.IsInf(d, 1) {
		t.Fatalf("disconnected pair distance %v", d)
	}
	if d := cch2.Dist(0, 1); math.Abs(d-geo.Residential.TravelTime(10)) > 1e-9 {
		t.Fatalf("edge distance %v", d)
	}
}

// TestCCHSkeletonDeterministic pins the canonical contraction order: two
// independent builds over the same topology must produce byte-identical
// artifacts. Distances across epochs (and across processes) are only
// bit-reproducible because this holds.
func TestCCHSkeletonDeterministic(t *testing.T) {
	g := testGraph(t, 14, 14, 99)
	a := BuildCCHSkeleton(g)
	b := BuildCCHSkeleton(g)
	if !reflect.DeepEqual(a.rank, b.rank) || !reflect.DeepEqual(a.order, b.order) {
		t.Fatal("contraction order differs between builds")
	}
	if !reflect.DeepEqual(a.upStart, b.upStart) || !reflect.DeepEqual(a.upTo, b.upTo) ||
		!reflect.DeepEqual(a.upVia, b.upVia) || !reflect.DeepEqual(a.upBase, b.upBase) {
		t.Fatal("upward arc arrays differ between builds")
	}
	if !reflect.DeepEqual(a.tri, b.tri) {
		t.Fatal("triangle enumeration differs between builds")
	}
}

// TestCCHCustomizeMatchesFreshBuild is the fast path's equivalence
// contract: customizing a skeleton with a later epoch's costs must be
// bit-identical — weights and distances — to contracting that epoch's
// snapshot from scratch. This is what lets Versioned swap a multi-second
// rebuild for a millisecond customization without perturbing replays.
func TestCCHCustomizeMatchesFreshBuild(t *testing.T) {
	g := testGraph(t, 12, 12, 7)
	skel := BuildCCHSkeleton(g)
	overlay := roadnet.NewOverlay(g)
	rng := rand.New(rand.NewSource(3))
	for epoch := 0; epoch < 4; epoch++ {
		cur := overlay.Graph()
		if epoch > 0 {
			var err error
			cur, _, _, err = overlay.Apply(randomUpdates(rng, g))
			if err != nil {
				t.Fatal(err)
			}
		}
		fast := skel.Customize(cur.ArcCosts())
		fresh := BuildCCH(cur)
		if !reflect.DeepEqual(fast.upW, fresh.upW) {
			t.Fatalf("epoch %d: customized weights differ from fresh build", epoch)
		}
		n := g.NumVertices()
		for q := 0; q < 200; q++ {
			s := roadnet.VertexID(rng.Intn(n))
			d := roadnet.VertexID(rng.Intn(n))
			if a, b := fast.Dist(s, d), fresh.Dist(s, d); a != b {
				t.Fatalf("epoch %d: Dist(%d,%d) customize %v != fresh %v", epoch, s, d, a, b)
			}
		}
	}
}

// TestCCHAcrossEpochsMatchesDijkstra recustomizes one skeleton through a
// sequence of randomized traffic epochs and checks exactness at each.
func TestCCHAcrossEpochsMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 13, 13, 31)
	skel := BuildCCHSkeleton(g)
	overlay := roadnet.NewOverlay(g)
	rng := rand.New(rand.NewSource(17))
	for epoch := 0; epoch < 6; epoch++ {
		cur := overlay.Graph()
		if epoch > 0 {
			var err error
			cur, _, _, err = overlay.Apply(randomUpdates(rng, g))
			if err != nil {
				t.Fatal(err)
			}
		}
		cch := skel.Customize(cur.ArcCosts())
		checkAgainstDijkstra(t, cch, cur, rng, 80, "cch")
	}
}

func TestCCHStatsSane(t *testing.T) {
	g := testGraph(t, 12, 12, 8)
	cch := BuildCCH(g)
	sk := cch.Skeleton()
	if sk.NumVertices() != g.NumVertices() {
		t.Fatalf("skeleton has %d vertices, graph %d", sk.NumVertices(), g.NumVertices())
	}
	if cch.AvgUpDegree() <= 0 {
		t.Fatal("no upward arcs")
	}
	// Without witness pruning the chordal skeleton is denser than classic
	// CH, but on a planar-ish grid it must stay modest.
	if cch.AvgUpDegree() > 48 {
		t.Fatalf("suspiciously dense skeleton: %v", cch.AvgUpDegree())
	}
	if sk.Shortcuts() <= 0 {
		t.Fatal("grid contraction added no shortcuts")
	}
	if sk.Triangles() <= 0 {
		t.Fatal("no lower triangles enumerated")
	}
	if cch.MemoryBytes() <= sk.MemoryBytes() {
		t.Fatal("customized memory must exceed the bare skeleton's")
	}
}

// TestVersionedCustomizeFastPath pins the epoch front's behavior when the
// built tier is a CCH: every Advance customizes (counted separately from
// full rebuilds) instead of contracting from scratch, and stays exact.
func TestVersionedCustomizeFastPath(t *testing.T) {
	g := testGraph(t, 12, 12, 21)
	n := g.NumVertices()
	budget := AutoBudget{MaxHubVertices: 0, MaxCCHVertices: n, MaxCHVertices: n}
	overlay := roadnet.NewOverlay(g)
	v := NewVersioned(g, budget, false)
	if v.ResolvedKind() != AutoCCH {
		t.Fatalf("epoch 0 kind %s, want cch", v.ResolvedKind())
	}
	rng := rand.New(rand.NewSource(23))
	const epochs = 4
	for e := 1; e <= epochs; e++ {
		cur, epoch, _, err := overlay.Apply(randomUpdates(rng, g))
		if err != nil {
			t.Fatal(err)
		}
		v.Advance(cur, epoch)
		if v.ResolvedKind() != AutoCCH {
			t.Fatalf("epoch %d kind %s, want cch", e, v.ResolvedKind())
		}
		checkAgainstDijkstra(t, v, cur, rng, 60, "versioned-cch")
	}
	if v.Rebuilds() != epochs || v.Customizations() != epochs {
		t.Fatalf("rebuilds=%d customizations=%d, want %d of each (fast path not taken?)",
			v.Rebuilds(), v.Customizations(), epochs)
	}
	if v.LastRebuild() <= 0 {
		t.Fatalf("last rebuild duration %v", v.LastRebuild())
	}
}

// TestVersionedConcurrentDistDuringCustomize is the -race check for the
// customize fast path: queries hammer the front from several goroutines
// while epochs advance with asynchronous customization over the shared
// skeleton, and every observed distance must belong to SOME applied epoch.
func TestVersionedConcurrentDistDuringCustomize(t *testing.T) {
	g := testGraph(t, 10, 10, 5)
	n := g.NumVertices()
	budget := AutoBudget{MaxHubVertices: 0, MaxCCHVertices: n, MaxCHVertices: n}
	overlay := roadnet.NewOverlay(g)
	v := NewVersioned(g, budget, true)
	sharded := NewShardedCached(NewAtomicCounting(v), 1<<10, 8)

	const epochs = 4
	const pairs = 32
	rng := rand.New(rand.NewSource(29))
	ss := make([]roadnet.VertexID, pairs)
	ts := make([]roadnet.VertexID, pairs)
	for i := range ss {
		ss[i] = roadnet.VertexID(rng.Intn(n))
		ts[i] = roadnet.VertexID(rng.Intn(n))
	}
	factors := []float64{1, 1.5, 2, 2.5, 3}
	want := make([][]float64, epochs+1)
	graphs := make([]*roadnet.Graph, epochs+1)
	graphs[0] = g
	pre := roadnet.NewOverlay(g)
	for e := 1; e <= epochs; e++ {
		cur, _, _, err := pre.Apply([]roadnet.TrafficUpdate{{Factor: factors[e]}})
		if err != nil {
			t.Fatal(err)
		}
		graphs[e] = cur
	}
	for e := 0; e <= epochs; e++ {
		ref := NewDijkstra(graphs[e])
		want[e] = make([]float64, pairs)
		for i := range ss {
			want[e][i] = ref.Dist(ss[i], ts[i])
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := Oracle(v)
			if w%2 == 1 {
				o = sharded
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % pairs
				got := o.Dist(ss[k], ts[k])
				ok := false
				for e := 0; e <= epochs; e++ {
					if math.Abs(got-want[e][k]) <= 1e-6*(1+got) {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("worker %d: Dist(%d,%d)=%v matches no epoch", w, ss[k], ts[k], got)
					return
				}
			}
		}(w)
	}
	for e := 1; e <= epochs; e++ {
		cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: factors[e]}})
		if err != nil {
			t.Fatal(err)
		}
		v.Advance(cur, epoch)
	}
	v.WaitRebuild()
	close(stop)
	wg.Wait()

	if v.Customizations() == 0 {
		t.Fatal("no Advance took the customize fast path")
	}
	for i := range ss {
		if got := sharded.Dist(ss[i], ts[i]); math.Abs(got-want[epochs][i]) > 1e-6*(1+got) {
			t.Fatalf("final epoch: Dist(%d,%d)=%v want %v", ss[i], ts[i], got, want[epochs][i])
		}
	}
}

// FuzzCCHCustomize drives randomized traffic factors through a shared
// skeleton and cross-checks customized distances against fresh Dijkstra.
func FuzzCCHCustomize(f *testing.F) {
	f.Add(int64(1), 1.5)
	f.Add(int64(7), 3.0)
	f.Add(int64(42), 1.0)
	g := testGraph(f, 8, 8, 11)
	skel := BuildCCHSkeleton(g)
	f.Fuzz(func(t *testing.T, seed int64, factor float64) {
		if math.IsNaN(factor) || factor < 1 || factor > 10 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		overlay := roadnet.NewOverlay(g)
		ups := randomUpdates(rng, g)
		ups = append(ups, roadnet.TrafficUpdate{Factor: factor})
		cur, _, _, err := overlay.Apply(ups)
		if err != nil {
			t.Skip()
		}
		cch := skel.Customize(cur.ArcCosts())
		ref := NewDijkstra(cur)
		n := g.NumVertices()
		for q := 0; q < 20; q++ {
			s := roadnet.VertexID(rng.Intn(n))
			d := roadnet.VertexID(rng.Intn(n))
			want := ref.Dist(s, d)
			if got := cch.Dist(s, d); math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("Dist(%d,%d)=%v want %v", s, d, got, want)
			}
		}
	})
}

func BenchmarkCCHQuery(b *testing.B) {
	g := testGraph(b, 40, 40, 1)
	cch := BuildCCH(g)
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cch.Dist(roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
	}
}

// BenchmarkCCHCustomize is the headline number: recustomizing the shared
// skeleton per traffic epoch versus contracting a hierarchy from scratch
// (compare BenchmarkCHBuild and the skeleton build below).
func BenchmarkCCHCustomize(b *testing.B) {
	g := testGraph(b, 25, 25, 1)
	skel := BuildCCHSkeleton(g)
	costs := g.ArcCosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skel.Customize(costs)
	}
}

func BenchmarkCCHSkeletonBuild(b *testing.B) {
	g := testGraph(b, 25, 25, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCCHSkeleton(g)
	}
}

// TestCustomizeParallelBitExact pins the parallel triangle sweep to the
// serial one: identical shortcut-weight arrays for every worker count,
// on base and perturbed (traffic-epoch) metrics.
func TestCustomizeParallelBitExact(t *testing.T) {
	g := testGraph(t, 14, 14, 7)
	sk := BuildCCHSkeleton(g)
	base := g.ArcCosts()
	rng := rand.New(rand.NewSource(11))
	costs := make([]float64, len(base))
	for epoch := 0; epoch < 3; epoch++ {
		copy(costs, base)
		if epoch > 0 {
			for i := range costs {
				if rng.Intn(3) == 0 {
					costs[i] *= 1 + 2*rng.Float64()
				}
			}
		}
		ref := sk.CustomizeParallel(costs, 1)
		for _, workers := range []int{2, 3, 8, 32, 64} {
			got := sk.CustomizeParallel(costs, workers)
			if !slices.Equal(ref.upW, got.upW) {
				t.Fatalf("epoch %d: CustomizeParallel(workers=%d) diverges from serial sweep",
					epoch, workers)
			}
		}
	}
}

// TestCustomizeParallelLargeSkeleton forces the parallel path (the small
// fixtures above stay under cchParallelMinTriples) and re-checks
// bit-exactness where the fan-out actually runs.
func TestCustomizeParallelLargeSkeleton(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 40x40 skeleton")
	}
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 40, Cols: 40, Spacing: 150, Jitter: 0.2, ArterialEvery: 5,
		MotorwayRing: true, RemoveFrac: 0.08, DetourMin: 1.05, DetourMax: 1.3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sk := BuildCCHSkeleton(g)
	if len(sk.tri) < cchParallelMinTriples {
		t.Skipf("skeleton too small to trigger the parallel path: %d elements", len(sk.tri))
	}
	ref := sk.CustomizeParallel(g.ArcCosts(), 1)
	for _, workers := range []int{2, 4, 32} {
		got := sk.CustomizeParallel(g.ArcCosts(), workers)
		if !slices.Equal(ref.upW, got.upW) {
			t.Fatalf("workers=%d diverges from serial on the large skeleton", workers)
		}
	}
}
