package service

import (
	"context"
	"errors"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/load"
	"batsched/internal/sched"
	"batsched/internal/spec"
	"batsched/internal/store"
	"batsched/internal/sweep"
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
// committed. The discretization tables come from dkibam's shared cache,
// warmed by AllocsPerRun's first call, so the count is the compile, sweep,
// lookup and commit path alone: with cells compiled through sweep.Run's
// default core.Compile path it measured 2224–2231 over 1536 runs at
// GOMAXPROCS 1 to 8, some of them beside a CPU-bound test run (goroutine
// and pool reuse vary by a few). It must not allocate more than that.
const coldSweepAllocCeiling = 2231

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

// resubmitSweepAllocCeiling bounds the allocations of a 90%-overlapping
// resubmission: a fresh memory store seeded with the 200 cells of coldGrid,
// then overlapGrid against it, 180 cells served from the store and 20
// evaluated. The count includes the seeding. With the discretization
// tables shared and the evaluated cells compiled through sweep.Run's
// default path it measured 522–525 over 1536 runs at GOMAXPROCS 1 to 8,
// some of them beside a CPU-bound test run (pool refills after a GC vary
// it).
const resubmitSweepAllocCeiling = 525

// overlapGrid is coldGrid with the ILs alt load swapped for an inline
// 250 s on / 250 s off load outside the paper set: 180 of its 200 cells are
// shared with coldGrid.
func overlapGrid() spec.Scenario {
	sc := coldGrid()
	for i := range sc.Loads {
		if sc.Loads[i].Paper == "ILs alt" {
			segs := make([]spec.Segment, 0, 48)
			for len(segs) < 48 {
				segs = append(segs,
					spec.Segment{DurationMin: 250.0 / 60, CurrentA: 0.5},
					spec.Segment{DurationMin: 250.0 / 60, CurrentA: 0},
				)
			}
			sc.Loads[i] = spec.Load{Name: "ILs 250/250", Segments: segs}
		}
	}
	return sc
}

// TestResubmitSweepAllocationCeiling holds the store-hit path of an
// overlapping resubmission — digesting, the bulk lookup, stored-line
// pass-through and the 10% miss path — under its measured ceiling.
func TestResubmitSweepAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	req := SweepRequest{Scenario: coldGrid(), Workers: 1}
	seed, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	if err := New(Options{MaxConcurrent: 1, Store: seed}).SweepStreamLines(context.Background(), req,
		func(SweepLine) error { return nil }); err != nil {
		t.Fatal(err)
	}
	digests, _, err := CellDigests(req)
	if err != nil {
		t.Fatal(err)
	}
	lines, hits := seed.LookupCells(digests)
	if hits != len(digests) {
		t.Fatalf("seed sweep stored %d of %d cells", hits, len(digests))
	}
	over := overlapGrid()
	var cached int
	allocs := testing.AllocsPerRun(3, func() {
		st, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for i, d := range digests {
			if err := st.PutCell(d, lines[i]); err != nil {
				t.Fatal(err)
			}
		}
		svc := New(Options{MaxConcurrent: 1, Store: st})
		cached = 0
		err = svc.SweepStreamLines(context.Background(), SweepRequest{Scenario: over, Workers: 1}, func(sl SweepLine) error {
			if sl.Cached {
				cached++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if cached != 180 {
		t.Fatalf("resubmission served %d cached cells, want 180", cached)
	}
	if allocs > resubmitSweepAllocCeiling {
		t.Errorf("90%%-overlap resubmission: %v allocs, ceiling %d", allocs, resubmitSweepAllocCeiling)
	}
}

// paperSweepAllocCeiling bounds one sweep.Run over the ten paper loads on
// 2xB1 at the paper grid under sequential, round-robin and best-of-two, with
// every cell precompiled: the evaluation path behind a cell miss, 30
// scenarios. When the pin was introduced it measured 40 on each of 368 runs,
// at GOMAXPROCS 1 to 8.
const paperSweepAllocCeiling = 40

// TestPaperSweepAllocationCeiling holds the sweep runner on hot compiled
// cells under its measured ceiling.
func TestPaperSweepAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	bank := sweep.BankOf("2xB1", battery.B1(), 2)
	lcs, err := sweep.PaperLoads(nil, 200)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweep.PaperGrid()
	cells := make(map[string]*core.Compiled, len(lcs))
	for _, lc := range lcs {
		c, err := core.Compile(bank.Batteries, lc.Load, grid.StepMin, grid.UnitAmpMin)
		if err != nil {
			t.Fatal(err)
		}
		cells[lc.Name] = c
	}
	sp := sweep.Spec{
		Banks:    []sweep.Bank{bank},
		Loads:    lcs,
		Policies: sweep.Policies(sched.Sequential(), sched.RoundRobin(), sched.BestAvailable()),
	}
	opts := sweep.Options{
		Workers: 1,
		Compile: func(_ sweep.Bank, lc sweep.LoadCase, _ sweep.GridSpec) (*core.Compiled, error) {
			return cells[lc.Name], nil
		},
	}
	allocs := testing.AllocsPerRun(20, func() {
		results, err := sweep.Run(sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	})
	if allocs > paperSweepAllocCeiling {
		t.Errorf("2xB1 paper-load policy sweep: %v allocs, ceiling %d", allocs, paperSweepAllocCeiling)
	}
}
