package dkibam

import (
	"fmt"
	"reflect"
	"testing"

	"batsched/internal/battery"
)

// benchGrids are the five (T, Gamma) grids of the benchmark sweeps, each
// dividing the capacities below.
var benchGrids = []float64{0.01, 0.02, 0.025, 0.05, 0.1}

func customBattery() battery.Params {
	return battery.Params{Capacity: 6, C: 0.4, KPrime: 2e-3, Label: "custom"}
}

// cacheSnapshot copies the cache's entries.
func cacheSnapshot() map[discKey]*Discretization {
	discCache.Lock()
	defer discCache.Unlock()
	snap := make(map[discKey]*Discretization, len(discCache.m))
	for k, d := range discCache.m {
		snap[k] = d
	}
	return snap
}

// TestDiscretizeSharedEqualsFresh: a cached table is field for field what
// an uncached build returns, and a second call shares the first's pointer.
func TestDiscretizeSharedEqualsFresh(t *testing.T) {
	for _, p := range []battery.Params{battery.B1(), battery.B2(), customBattery()} {
		for _, g := range benchGrids {
			d, err := Discretize(p, g, g)
			if err != nil {
				t.Fatalf("%s on %v: %v", p.Label, g, err)
			}
			fresh, err := discretize(p, g, g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d, fresh) {
				t.Fatalf("%s on %v: cached table differs from a fresh build", p.Label, g)
			}
			again, err := Discretize(p, g, g)
			if err != nil {
				t.Fatal(err)
			}
			if again != d {
				t.Fatalf("%s on %v: second call built a new table", p.Label, g)
			}
		}
	}
	// The label is part of the key: a relabelled battery gets its own
	// table, carrying its own label.
	relabelled := battery.B1()
	relabelled.Label = "B1-copy"
	d, err := PaperDiscretization(relabelled)
	if err != nil {
		t.Fatal(err)
	}
	if d.Params != relabelled {
		t.Fatalf("relabelled battery served %+v", d.Params)
	}
}

// TestDiscretizeErrorsNotCached: an invalid input fails on every call and
// leaves the cache as it was.
func TestDiscretizeErrorsNotCached(t *testing.T) {
	bad := []struct {
		p          battery.Params
		step, unit float64
	}{
		{battery.B1(), 0, PaperUnitAmpMin},
		{battery.B1(), PaperStepMin, -1},
		{battery.B1(), PaperStepMin, 0.3},
		{battery.Params{Capacity: 5.5, C: 1.5, KPrime: 4.5e-5}, PaperStepMin, PaperUnitAmpMin},
	}
	before := cacheSnapshot()
	for _, b := range bad {
		for range 2 {
			if d, err := Discretize(b.p, b.step, b.unit); err == nil {
				t.Fatalf("Discretize(%+v, %v, %v) = %+v, want an error", b.p, b.step, b.unit, d)
			}
		}
	}
	if after := cacheSnapshot(); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed builds changed the cache: %d entries before, %d after", len(before), len(after))
	}
}

// TestDiscretizeCacheBounded: more distinct batteries than the cap never
// grow the cache past it, and the newest table stays shared.
func TestDiscretizeCacheBounded(t *testing.T) {
	for i := range 2*discCacheCap + 3 {
		p := battery.B1()
		p.Label = fmt.Sprintf("bound-%d", i)
		d, err := PaperDiscretization(p)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(cacheSnapshot()); n > discCacheCap {
			t.Fatalf("cache holds %d tables after %d inserts, cap %d", n, i+1, discCacheCap)
		}
		if again, _ := PaperDiscretization(p); again != d {
			t.Fatalf("insert %d: newest table not shared", i)
		}
	}
}
