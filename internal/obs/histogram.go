package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default duration buckets in seconds: roughly
// logarithmic from 100ns (a steady-state session step is a few hundred
// nanoseconds) to 10s (a cold optimal search). 25 buckets keep a histogram
// at ~26 atomic words — cheap enough to arm everywhere a mean exists.
var LatencyBuckets = []float64{
	1e-7, 2.5e-7, 5e-7,
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic counters: Observe is a
// binary search plus two atomic adds — no locks, no allocation — so it can
// sit on hot paths that are pinned to zero allocations per op. Bucket i
// counts observations v <= bounds[i]; an overflow bucket past the last
// bound completes the +Inf cumulative line. The nil Histogram is a valid
// no-op, so instrumented code needs no "is observability wired?" branches.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the overflow (+Inf) bucket
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given strictly-ascending finite
// bucket upper bounds (nil or empty means LatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	bs := append([]float64(nil), bounds...)
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bounds must be finite")
		}
		if i > 0 && bs[i-1] >= b {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value. Nil-safe and allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start. Nil-safe.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// HistogramSnapshot is a coherent read of a histogram's buckets.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts the per-bucket (NOT
	// cumulative) observation counts, with Counts[len(Bounds)] the overflow
	// bucket past the last bound.
	Bounds []float64
	Counts []uint64
	// Sum is the sum of observed values.
	Sum float64
}

// Snapshot reads the buckets once. Concurrent Observes may land between
// bucket reads, but cumulative sums computed over the snapshot are always
// internally consistent and monotone.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts)), Sum: h.Sum()}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Count returns the snapshot's total observation count.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}
