package sched

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
)

// TestOptimalParallelDeterminism is the determinism property of the
// work-stealing search: for every worker count and across repeated runs,
// the lifetime must be bit-identical to the serial search's and the
// schedule must be byte-identical (the canonical reconstruction does not
// depend on scheduling, stealing order or shared-memo content).
func TestOptimalParallelDeterminism(t *testing.T) {
	b1, b2 := battery.B1(), battery.B2()
	cells := []struct {
		name    string
		bats    []battery.Params
		load    string
		horizon float64
		grid    float64
	}{
		{"2xB1/ILs alt", []battery.Params{b1, b1}, "ILs alt", 200, 0.01},
		{"2xB1/ILs r1", []battery.Params{b1, b1}, "ILs r1", 200, 0.01},
		{"mixed/ILs alt", []battery.Params{b1, b2}, "ILs alt", 400, 0.05},
	}
	workerCounts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ds, cl := diffGrid(t, c.bats, c.load, c.horizon, c.grid, c.grid)
			wantLT, wantSched, err := Optimal(ds, cl)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, err := json.Marshal(wantSched)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				for rep := 0; rep < 3; rep++ {
					lt, sched, err := OptimalParallel(ds, cl, workers)
					if err != nil {
						t.Fatalf("workers=%d rep=%d: %v", workers, rep, err)
					}
					if lt != wantLT {
						t.Fatalf("workers=%d rep=%d: lifetime %v, serial %v", workers, rep, lt, wantLT)
					}
					got, err := json.Marshal(sched)
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(wantBytes) {
						t.Fatalf("workers=%d rep=%d: schedule diverged\n got: %s\nwant: %s",
							workers, rep, got, wantBytes)
					}
				}
			}
		})
	}
}

// TestSharedMemoHitAttribution pins the stats contract of the shared memo:
// one lookup increments exactly one of MemoHits / SharedMemoHits, in the
// stats of the worker that performed it, and own- vs foreign-entry
// attribution follows who stored the death. Two optimizers share one table
// serially: the second worker's root lookup resolves from the first
// worker's entry and must count as exactly one SharedMemoHits — not as a
// MemoHits, and not once per observing worker.
func TestSharedMemoHitAttribution(t *testing.T) {
	ds, cl := diffGrid(t, []battery.Params{battery.B1(), battery.B1()}, "ILs alt", 200, 0.01, 0.01)
	shared := newSharedMemo()

	run := func(wid uint8) (*optimizer, int) {
		o, err := newOptimizer(ds, cl, DefaultSearchOptions())
		if err != nil {
			t.Fatal(err)
		}
		o.memo, o.wid = shared, wid
		sys, err := dkibam.NewSystem(ds, cl)
		if err != nil {
			t.Fatal(err)
		}
		death, err := o.solve(sys)
		if err != nil {
			t.Fatal(err)
		}
		return o, death
	}

	first, d1 := run(0)
	if first.stats.SharedMemoHits != 0 {
		t.Fatalf("first worker on an empty shared table counted %d shared hits", first.stats.SharedMemoHits)
	}
	if first.stats.States == 0 || first.stats.MemoHits == 0 {
		t.Fatalf("first worker did no memoised search: %+v", first.stats)
	}

	second, d2 := run(1)
	if d2 != d1 {
		t.Fatalf("shared-memo re-solve: %d, want %d", d2, d1)
	}
	// The whole solve must resolve from worker 0's exact root entry: one
	// foreign hit, zero own hits, zero expansions.
	if second.stats.SharedMemoHits != 1 || second.stats.MemoHits != 0 || second.stats.States != 0 {
		t.Fatalf("second worker stats %+v, want exactly one SharedMemoHits and nothing else", second.stats)
	}
}

// TestSerialStatsHaveNoParallelCounters pins that serial searches never
// report stealing or shared-memo traffic.
func TestSerialStatsHaveNoParallelCounters(t *testing.T) {
	ds, cl := diffGrid(t, []battery.Params{battery.B1(), battery.B1()}, "ILs alt", 200, 0.01, 0.01)
	_, _, stats, err := OptimalWithStats(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steals != 0 || stats.SharedMemoHits != 0 {
		t.Fatalf("serial search reported parallel counters: %+v", stats)
	}
}

// TestOptimalParallelMixedSixBatteries solves a heterogeneous 3xB1 + 3xB2
// bank exactly — a shape on which frontier-split parallelism re-derived ~3.9x
// the serial state count (private per-worker memos; heterogeneous states
// collapse far less under canonicalization), where the shared memo keeps the
// parallel search at ~1.0x — and holds the parallel result bit-identical to
// the serial one, schedule bytes included. The serial state count is
// deterministic and pinned exactly.
func TestOptimalParallelMixedSixBatteries(t *testing.T) {
	if testing.Short() {
		t.Skip("six-battery exact search")
	}
	b1, b2 := battery.B1(), battery.B2()
	bats := []battery.Params{b1, b1, b1, b2, b2, b2}
	ds, cl := diffGrid(t, bats, "ILs 500", 2000, 0.5, 0.5)

	serialLT, serialSched, stats, err := OptimalWithStats(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LPBounds == 0 {
		t.Fatalf("mixed-bank search never consulted the LP bound: %+v", stats)
	}
	if stats.States != 1163595 {
		t.Errorf("serial search expanded %d states, want 1163595", stats.States)
	}
	// The exact optimum must dominate every policy on the same bank.
	for _, policy := range []Policy{Sequential(), RoundRobin(), BestAvailable()} {
		lt, _, err := Run(ds, cl, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if lt > serialLT {
			t.Fatalf("%s lifetime %v beats exact optimum %v", policy.Name(), lt, serialLT)
		}
	}
	replayed, _, err := Run(ds, cl, Replay("opt-mixed", serialSched))
	if err != nil {
		t.Fatal(err)
	}
	if replayed != serialLT {
		t.Fatalf("schedule replays to %v, search says %v", replayed, serialLT)
	}

	parLT, parSched, parStats, err := OptimalParallelWithStats(ds, cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if parLT != serialLT {
		t.Fatalf("parallel lifetime %v, serial %v", parLT, serialLT)
	}
	a, _ := json.Marshal(serialSched)
	b, _ := json.Marshal(parSched)
	if string(a) != string(b) {
		t.Fatalf("parallel schedule diverged\n got: %s\nwant: %s", b, a)
	}
	if parStats.States == 0 {
		t.Fatalf("parallel search reported no work: %+v", parStats)
	}
}

// minParallelSpeedup is the speedup floor of the four-worker search over the
// serial one. Near-linear scaling lands above 3x; the floor at 2x leaves room
// for shared-memo contention and runner noise while still catching a
// work-stealing pool that degenerated to serial-with-overhead.
const minParallelSpeedup = 2.0

// TestOptimalParallelSpeedupFloor pins the homogeneous 4xB1 / CL 500 cell on
// the paper grid: lifetime and serial state count always, and on machines
// with at least four CPUs the four-worker search must beat the serial one by
// minParallelSpeedup, best of three runs each.
func TestOptimalParallelSpeedupFloor(t *testing.T) {
	ds, cl := diffGrid(t, battery.Bank(battery.B1(), 4), "CL 500", 200, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	lt, _, stats, err := OptimalWithStats(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lt-10.94) > 1e-9 {
		t.Fatalf("4xB1/CL 500 optimal %v, want 10.94", lt)
	}
	if stats.States != 22820 {
		t.Errorf("serial search expanded %d states, want 22820", stats.States)
	}
	t.Run("speedup", func(t *testing.T) {
		switch {
		case testing.Short():
			t.Skip("speedup timing")
		case raceEnabled:
			t.Skip("timings are not meaningful under -race")
		case min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) < 4:
			t.Skipf("the speedup floor needs 4 CPUs, have %d (GOMAXPROCS %d)", runtime.NumCPU(), runtime.GOMAXPROCS(0))
		}
		bestOf3 := func(search func() (float64, Schedule, SearchStats, error)) time.Duration {
			var best time.Duration
			for i := 0; i < 3; i++ {
				t0 := time.Now()
				got, _, _, err := search()
				if err != nil {
					t.Fatal(err)
				}
				if got != lt {
					t.Fatalf("search returned %v, serial optimum %v", got, lt)
				}
				if d := time.Since(t0); i == 0 || d < best {
					best = d
				}
			}
			return best
		}
		serial := bestOf3(func() (float64, Schedule, SearchStats, error) { return OptimalWithStats(ds, cl) })
		parallel := bestOf3(func() (float64, Schedule, SearchStats, error) { return OptimalParallelWithStats(ds, cl, 4) })
		if speedup := float64(serial) / float64(parallel); speedup < minParallelSpeedup {
			t.Errorf("4 workers: %.2fx over serial (%v vs %v), floor %.1fx", speedup, parallel, serial, minParallelSpeedup)
		}
	})
}
