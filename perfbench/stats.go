package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark treats it as supported by the sample (a tail estimated from
// fewer points is mostly the single slowest op).
const minTail = 10

// rank returns the 1-based nearest-rank index of the p-th percentile
// (0 < p <= 100) in a sample of n.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample, or 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailSupported reports whether the p-th percentile of n samples has at
// least minTail samples beyond it.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// median returns the middle of an unsorted sample (mean of the two
// middle values for an even count), or 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts durations to float milliseconds, sorted ascending.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// latencySummary is the per-op wall-time distribution of one workload
// class, in milliseconds.
type latencySummary struct {
	N             int
	P50, P90, P99 float64
}

func summarize(ds []time.Duration) latencySummary {
	s := sortedMS(ds)
	return latencySummary{N: len(s), P50: percentile(s, 50), P90: percentile(s, 90), P99: percentile(s, 99)}
}

// tally counts attempted and failed ops. A non-zero exit, a non-200
// status or a shed response is a failure; failures carry no latency
// sample, so they can never flatter a percentile.
type tally struct {
	Attempted, Failed int
}

func (t *tally) add(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

// failFrac is failed over attempted (0 when nothing was attempted).
func (t tally) failFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}
