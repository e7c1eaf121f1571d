package shortest

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/roadnet"
)

// TestLRUGrowsOnDemand pins the demand-grown storage: a fresh 2^18-entry
// cache (a server's size) costs almost nothing until it holds entries,
// and growth never reserves more slots than the capacity.
func TestLRUGrowsOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewLRU(1 << 18)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
		t.Fatalf("empty NewLRU(1<<18) allocated %d bytes, want < 1 MB", b)
	}
	for _, capacity := range []int{1, 5, 100, 1000} {
		c := NewLRU(capacity)
		for i := 0; i < 3*capacity; i++ {
			c.Put(roadnet.VertexID(i), roadnet.VertexID(i+1), float64(i))
			if c.Len() > capacity || cap(c.entries) > capacity {
				t.Fatalf("capacity %d: len %d, slots %d after %d puts",
					capacity, c.Len(), cap(c.entries), i+1)
			}
		}
		if c.Len() != capacity {
			t.Fatalf("capacity %d: holds %d entries after overfilling", capacity, c.Len())
		}
	}
}

// refLRU is a slice-backed model of least-recently-used order: keys[0]
// is the most recently used.
type refLRU struct {
	capacity int
	keys     []uint64
	vals     map[uint64]float64
}

func (r *refLRU) touch(k uint64) {
	i := slices.Index(r.keys, k)
	r.keys = slices.Insert(slices.Delete(r.keys, i, i+1), 0, k)
}

func (r *refLRU) get(k uint64) (float64, bool) {
	d, ok := r.vals[k]
	if ok {
		r.touch(k)
	}
	return d, ok
}

func (r *refLRU) put(k uint64, d float64) {
	if _, ok := r.vals[k]; ok {
		r.vals[k] = d
		r.touch(k)
		return
	}
	if len(r.keys) == r.capacity {
		delete(r.vals, r.keys[len(r.keys)-1])
		r.keys = r.keys[:len(r.keys)-1]
	}
	r.vals[k] = d
	r.keys = slices.Insert(r.keys, 0, k)
}

// order lists the cache's keys from most to least recently used.
func (c *LRU) order() []uint64 {
	var out []uint64
	for i := c.head; i >= 0; i = c.entries[i].next {
		out = append(out, c.entries[i].key)
	}
	return out
}

// TestLRUEvictionOrderMatchesModel drives random gets and puts over more
// keys than the cache holds, across the growth steps and well past
// capacity, and requires the recency order, the values and the hit/miss
// answers to match a straightforward LRU model at every step.
func TestLRUEvictionOrderMatchesModel(t *testing.T) {
	for _, capacity := range []int{3, 37, 200} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		c := NewLRU(capacity)
		ref := &refLRU{capacity: capacity, vals: map[uint64]float64{}}
		for step := 0; step < 20000; step++ {
			u := roadnet.VertexID(rng.Intn(30))
			v := roadnet.VertexID(rng.Intn(30))
			k := pairKey(u, v)
			if rng.Intn(3) == 0 {
				got, ok := c.Get(u, v)
				want, wantOK := ref.get(k)
				if ok != wantOK || got != want {
					t.Fatalf("capacity %d step %d: Get(%d,%d) = %v,%v, model %v,%v",
						capacity, step, u, v, got, ok, want, wantOK)
				}
			} else {
				d := rng.Float64()
				c.Put(u, v, d)
				ref.put(k, d)
			}
			if !slices.Equal(c.order(), ref.keys) {
				t.Fatalf("capacity %d step %d: recency order diverges from the model", capacity, step)
			}
		}
	}
}

// TestLRUFlushKeepsStorage checks that a flushed cache refills without
// allocating: an epoch advance must not hand the grown storage back.
func TestLRUFlushKeepsStorage(t *testing.T) {
	const n = 1000
	c := NewLRU(4 * n)
	fill := func() {
		for i := 0; i < n; i++ {
			c.Put(roadnet.VertexID(i), roadnet.VertexID(2*i+1), float64(i))
		}
	}
	fill()
	slots := cap(c.entries)
	allocs := testing.AllocsPerRun(5, func() {
		c.Flush()
		if c.Len() != 0 {
			t.Fatalf("Flush left %d entries", c.Len())
		}
		fill()
	})
	if allocs != 0 {
		t.Fatalf("refill after Flush allocated %v times, want 0", allocs)
	}
	if cap(c.entries) != slots {
		t.Fatalf("Flush changed the entry storage: %d slots, was %d", cap(c.entries), slots)
	}
	if d, ok := c.Get(7, 15); !ok || d != 7 {
		t.Fatalf("refilled entry missing: %v %v", d, ok)
	}
}
