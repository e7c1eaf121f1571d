package shortest

// Epoch-aware distance oracles. A roadnet.Overlay produces a new immutable
// weight snapshot per traffic update; this file makes the oracle stack
// follow it:
//
//   - Versioned fronts the preprocessed tier families (Auto): it serves
//     queries from the strongest built tier while that tier's epoch is
//     current, and from a live bidirectional-Dijkstra tier on the new
//     snapshot the moment an epoch advances — so a query NEVER sees stale
//     weights, even while an asynchronous rebuild of the preprocessed
//     tier is still running. Every tier is exact, so which tier answers
//     is unobservable in the results; only latency differs. That is what
//     keeps replay equivalence independent of rebuild timing.
//
//   - Cached/ShardedCached watch an EpochSource discovered in their inner
//     chain and flush themselves when the epoch advances, so no cached
//     distance from an earlier epoch can leak into a plan.
//
// The single-epoch (static) case is the existing behavior: the epoch
// never advances, the watch branch never fires, the built tier always
// answers — decisions are bit-identical to the pre-epoch stack.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/roadnet"
)

// EpochSource reports the weight epoch an oracle currently answers for.
// roadnet.Overlay and Versioned implement it.
type EpochSource interface {
	Epoch() uint64
}

// Versioned is the epoch-aware oracle front. Dist is safe for any number
// of concurrent callers (the preprocessed tier is wrapped in Locked when
// it is stateful); Advance may run concurrently with queries.
type Versioned struct {
	budget AutoBudget
	async  bool

	epoch atomic.Uint64 // current weight epoch (lock-free for cache watchers)

	mu         sync.RWMutex
	g          *roadnet.Graph // current snapshot
	live       Oracle         // Locked BiDijkstra over g; always current
	built      Oracle         // preprocessed tier (concurrency-safe)
	builtKind  AutoKind
	builtOK    bool // built answers for the current epoch
	gen        uint64
	rebuilding sync.WaitGroup
	// cchSkel is the metric-independent CCH skeleton captured when the
	// built tier is a CCH. Epoch advances then take the customize fast
	// path: re-derive shortcut weights over this fixed skeleton instead of
	// contracting from scratch. Snapshots share the base topology, so one
	// skeleton serves every epoch. Guarded by mu.
	cchSkel *CCHSkeleton

	rebuilds       atomic.Uint64
	customizations atomic.Uint64
	lastRebuildNs  atomic.Int64
}

// NewVersioned builds the strongest tier for g under budget (synchronously,
// like Auto) and returns the epoch-0 front. With async true, later epoch
// advances rebuild the preprocessed tier in a background goroutine while
// the live tier serves; with async false, Advance blocks until the new
// tier is ready (the deterministic choice for offline experiments, where
// rebuild cost should be attributed to the run that caused it).
func NewVersioned(g *roadnet.Graph, budget AutoBudget, async bool) *Versioned {
	base, kind := Auto(g, budget)
	return AdoptVersioned(g, base, kind, budget, async)
}

// AdoptVersioned wraps an already-built tier (e.g. from cliutil.BuildOracle)
// as the epoch-0 preprocessed tier, avoiding a duplicate preprocessing
// pass at startup. kind must name base's tier so Versioned knows whether
// it needs a lock.
func AdoptVersioned(g *roadnet.Graph, base Oracle, kind AutoKind, budget AutoBudget, async bool) *Versioned {
	v := &Versioned{budget: budget, async: async}
	v.g = g
	v.live = NewLocked(NewBiDijkstra(g))
	v.built = lockIfStateful(base, kind)
	v.builtKind = kind
	v.builtOK = true
	if c, ok := base.(*CCH); ok {
		v.cchSkel = c.Skeleton()
	}
	v.epoch.Store(g.WeightEpoch())
	return v
}

// lockIfStateful wraps non-hub tiers in a mutex: hub labels are immutable
// after construction, the other tiers reuse per-instance search state.
func lockIfStateful(o Oracle, kind AutoKind) Oracle {
	if kind == AutoHub {
		return o
	}
	if _, ok := o.(*Locked); ok {
		return o
	}
	return NewLocked(o)
}

// Epoch implements EpochSource.
func (v *Versioned) Epoch() uint64 { return v.epoch.Load() }

// Rebuilds returns how many preprocessed-tier rebuilds have completed.
func (v *Versioned) Rebuilds() uint64 { return v.rebuilds.Load() }

// Customizations returns how many of those rebuilds took the CCH
// customize fast path (re-deriving shortcut weights over the fixed
// skeleton) rather than preprocessing from scratch.
func (v *Versioned) Customizations() uint64 { return v.customizations.Load() }

// LastRebuild returns the duration of the most recent completed rebuild
// (0 before the first).
func (v *Versioned) LastRebuild() time.Duration {
	return time.Duration(v.lastRebuildNs.Load())
}

// ResolvedKind names the tier currently answering queries: the built tier
// when it is current, otherwise the live bidirectional-Dijkstra tier.
func (v *Versioned) ResolvedKind() AutoKind {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.builtOK {
		return v.builtKind
	}
	return AutoBiDijkstra
}

// Graph returns the snapshot queries currently run against.
func (v *Versioned) Graph() *roadnet.Graph {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.g
}

// Dist implements Oracle on the current epoch's weights. The lock is held
// across the inner query so a concurrent Advance can never hand the call
// a tier from a superseded epoch; it allocates nothing.
func (v *Versioned) Dist(s, t roadnet.VertexID) float64 {
	v.mu.RLock()
	o := v.live
	if v.builtOK {
		o = v.built
	}
	d := o.Dist(s, t)
	v.mu.RUnlock()
	return d
}

// Advance switches the front to a new weight snapshot. Queries arriving
// after Advance returns are answered on the new weights: immediately by
// the live tier, and by the rebuilt preprocessed tier once construction
// completes (synchronously here unless async). A stale in-flight rebuild
// whose epoch was superseded is discarded on arrival.
func (v *Versioned) Advance(g *roadnet.Graph, epoch uint64) {
	v.mu.Lock()
	v.g = g
	v.gen++
	gen := v.gen
	v.live = NewLocked(NewBiDijkstra(g))
	v.builtOK = false
	v.epoch.Store(epoch)
	if v.async {
		// Registered while still holding the lock: a WaitRebuild issued
		// after Advance returns must observe this rebuild, and Add must
		// not race a concurrent Wait that has already drained to zero.
		v.rebuilding.Add(1)
	}
	v.mu.Unlock()

	if v.async {
		go func() {
			defer v.rebuilding.Done()
			v.rebuild(g, gen)
		}()
		return
	}
	v.rebuild(g, gen)
}

// rebuild re-derives the preprocessed tier for g and installs it if its
// generation is still current. When the built tier is a CCH it takes the
// customize fast path: snapshots from one Overlay share topology (and so
// arc indexing), so re-deriving shortcut weights over the fixed skeleton
// replaces a from-scratch contraction — milliseconds instead of seconds,
// which is the point of the CCH tier (DESIGN.md §12).
func (v *Versioned) rebuild(g *roadnet.Graph, gen uint64) {
	start := time.Now()
	v.mu.RLock()
	skel := v.cchSkel
	v.mu.RUnlock()

	var (
		base Oracle
		kind AutoKind
	)
	customized := false
	if skel != nil && skel.NumVertices() == g.NumVertices() {
		base, kind = skel.Customize(g.ArcCosts()), AutoCCH
		customized = true
	} else {
		base, kind = Auto(g, v.budget)
	}
	o := lockIfStateful(base, kind)
	v.mu.Lock()
	if v.gen == gen {
		v.built = o
		v.builtKind = kind
		v.builtOK = true
		if c, ok := base.(*CCH); ok {
			v.cchSkel = c.Skeleton()
		}
		v.lastRebuildNs.Store(time.Since(start).Nanoseconds())
		v.rebuilds.Add(1)
		if customized {
			v.customizations.Add(1)
		}
	}
	v.mu.Unlock()
}

// WaitRebuild blocks until no asynchronous rebuild is in flight; tests
// and benchmarks use it to pin which tier answers.
func (v *Versioned) WaitRebuild() { v.rebuilding.Wait() }

// epochSourceOf walks a query chain to the epoch-bearing oracle, if any.
// Resolution happens once, at cache construction, so static chains pay
// nothing per query.
func epochSourceOf(o Oracle) EpochSource {
	for {
		switch x := o.(type) {
		case *Versioned:
			return x
		case *Counting:
			o = x.Inner
		case *AtomicCounting:
			o = x.Inner
		case *Locked:
			o = x.inner
		default:
			return nil
		}
	}
}
