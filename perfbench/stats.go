package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: with
// fewer, a tail percentile is one or two outliers and moves from run to
// run by chance alone.
const minTail = 10

// tailPercentile returns the p-quantile of samples (nearest rank) when at
// least minTail samples lie beyond it; otherwise the highest quantile that
// still has minTail samples beyond it, falling back to the median when
// there are too few samples for any tail. It also returns the quantile it
// reported, so callers can state what they measured. samples is sorted in
// place.
func tailPercentile(samples []float64, p float64) (value, q float64) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(samples)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	if beyond := n - 1 - idx; beyond < minTail {
		idx = n - 1 - minTail
	}
	if med := (n - 1) / 2; idx < med {
		idx = med
	}
	return samples[idx], float64(idx+1) / float64(n)
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerMedianAcross takes the runs of one deterministic replay, runs[r][k]
// being run r's figure for its k-th step, and returns step by step the
// lower median over the runs: the middle value of an odd count, the lower
// of the two middle values of an even one. A burst of interference on a
// shared machine only ever adds time to the steps it hits, and it rarely
// hits the same step in most runs, so this keeps the figure of a step
// that ran undisturbed; of two runs it keeps the faster. Runs of unequal
// length are cut to the shortest.
func lowerMedianAcross(runs [][]float64) []float64 {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	for _, r := range runs {
		n = min(n, len(r))
	}
	out := make([]float64, n)
	col := make([]float64, len(runs))
	for k := range out {
		for r, xs := range runs {
			col[r] = xs[k]
		}
		sort.Float64s(col)
		out[k] = col[(len(col)-1)/2]
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencyMs is an open-loop request's latency: from when it was due to be
// sent, not from when the generator got round to sending it, so a stall
// in the generator or the server is charged to every request it delays.
func latencyMs(due, done time.Time) float64 {
	return float64(done.Sub(due).Nanoseconds()) / 1e6
}

// rung is one offered rate of the open-loop ladder as the SLO rule sees it.
type rung struct {
	rate float64
	// attempted counts every request sent at this rate; onTime those
	// answered with HTTP 200 within the latency limit of their due time.
	// Refusals (429) and errors are attempted but never on time.
	attempted, onTime int
}

// sloRate is the highest offered rate at which at least share of the
// attempted requests were answered on time; 0 when no rate qualifies.
func sloRate(rungs []rung, share float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.attempted > 0 && float64(r.onTime) >= share*float64(r.attempted) && r.rate > best {
			best = r.rate
		}
	}
	return best
}
