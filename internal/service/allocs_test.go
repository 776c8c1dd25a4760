package service

import (
	"context"
	"errors"
	"testing"

	"batsched/internal/load"
	"batsched/internal/spec"
	"batsched/internal/store"
)

// coldGrid is the 200-cell grid of the cold-sweep pin: two banks, the ten
// paper loads on their 200 min horizon, two policies and five grids whose
// sizes divide the battery capacities.
func coldGrid() spec.Scenario {
	loads := make([]spec.Load, len(load.PaperLoadNames))
	for i, name := range load.PaperLoadNames {
		loads[i] = spec.Load{Paper: name, HorizonMin: 200}
	}
	steps := []float64{0.01, 0.02, 0.025, 0.05, 0.1}
	grids := make([]spec.Grid, len(steps))
	for i, g := range steps {
		grids[i] = spec.Grid{StepMin: g, UnitAmpMin: g}
	}
	return spec.Scenario{
		Banks: []spec.Bank{
			{Battery: &spec.Battery{Preset: "B1"}, Count: 2},
			{Battery: &spec.Battery{Preset: "B2"}, Count: 1},
		},
		Loads:   loads,
		Solvers: []spec.Solver{{Name: "sequential"}, {Name: "bestof"}},
		Grids:   grids,
	}
}

// coldSweepAllocCeiling bounds the allocations of one cold 200-cell sweep:
// fresh memory store and service, every cell digested, missed, evaluated and
// committed. When the pin was introduced the sweep measured 2850–2858
// allocations over 60 runs (goroutine and pool reuse vary by a few); the
// lookup and commit path must not allocate more than that.
const coldSweepAllocCeiling = 2860

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestColdSweepAllocationCeiling holds a cold store-backed sweep through the
// line path under its measured allocation ceiling.
func TestColdSweepAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sc := coldGrid()
	var cells int
	allocs := testing.AllocsPerRun(3, func() {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		svc := New(Options{MaxConcurrent: 1, Store: st})
		cells = 0
		err = svc.SweepStreamLines(context.Background(), SweepRequest{Scenario: sc, Workers: 1}, func(sl SweepLine) error {
			if sl.Cached {
				return errors.New("cold sweep served a cached cell")
			}
			cells++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if cells != 200 {
		t.Fatalf("cold sweep emitted %d cells, want 200", cells)
	}
	if allocs > coldSweepAllocCeiling {
		t.Errorf("cold 200-cell sweep: %v allocs, ceiling %d", allocs, coldSweepAllocCeiling)
	}
}
