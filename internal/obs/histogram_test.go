package obs

import (
	"math"
	"testing"
	"time"
)

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1} // <=1: {0.5, 1}; <=10: {5}; <=100: {50}; +Inf: {500}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-556.5) > 1e-9 {
		t.Fatalf("Sum = %v, want 556.5", h.Sum())
	}
}

func TestHistogramNilIsNoOp(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram not inert")
	}
	if s := h.Snapshot(); s.Count() != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(3.14e-5)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", allocs)
	}
}

func TestDefaultBucketsAscending(t *testing.T) {
	for i := 1; i < len(LatencyBuckets); i++ {
		if LatencyBuckets[i-1] >= LatencyBuckets[i] {
			t.Fatalf("LatencyBuckets not ascending at %d", i)
		}
	}
}
