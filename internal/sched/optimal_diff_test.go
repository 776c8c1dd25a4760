package sched

import (
	"errors"
	"math"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/load"
)

// diffGrid compiles a bank and a load on an explicit grid.
func diffGrid(t *testing.T, bats []battery.Params, loadName string, horizon, stepMin, unitAmpMin float64) ([]*dkibam.Discretization, load.Compiled) {
	t.Helper()
	ds := make([]*dkibam.Discretization, len(bats))
	for i, b := range bats {
		d, err := dkibam.Discretize(b, stepMin, unitAmpMin)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	l, err := load.Paper(loadName, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := load.Compile(l, stepMin, unitAmpMin)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cl
}

// optionMatrix is every optimization combination; the reference (zero)
// options reproduce the pre-optimization exhaustive search exactly.
var optionMatrix = []struct {
	name string
	opts SearchOptions
}{
	{"canon+prune+lp", DefaultSearchOptions()},
	{"canon+prune", SearchOptions{Canonicalize: true, Prune: true}},
	{"prune+lp", SearchOptions{Prune: true, LPBound: true}},
	{"canon", SearchOptions{Canonicalize: true}},
	{"prune", SearchOptions{Prune: true}},
}

// checkSearch runs the optimized searches (and the parallel variant) on one
// cell and holds every lifetime to want; schedules must replay to the same
// value. want comes either from a live reference run or from the golden
// table recorded from the reference search.
func checkSearch(t *testing.T, ds []*dkibam.Discretization, cl load.Compiled, want float64, parallel bool) {
	t.Helper()
	for _, m := range optionMatrix {
		lt, schedule, _, err := OptimalWithOptions(ds, cl, m.opts)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if lt != want {
			t.Errorf("%s: lifetime %v, reference search says %v", m.name, lt, want)
		}
		replayed, _, err := Run(ds, cl, Replay("diff", schedule))
		if err != nil {
			t.Fatalf("%s replay: %v", m.name, err)
		}
		if replayed != lt {
			t.Errorf("%s: schedule replays to %v, search says %v", m.name, replayed, lt)
		}
	}
	if parallel {
		lt, schedule, _, err := OptimalParallelWithStats(ds, cl, 4)
		if err != nil {
			t.Fatalf("parallel: %v", err)
		}
		if lt != want {
			t.Errorf("parallel: lifetime %v, reference search says %v", lt, want)
		}
		replayed, _, err := Run(ds, cl, Replay("diff-par", schedule))
		if err != nil {
			t.Fatalf("parallel replay: %v", err)
		}
		if replayed != lt {
			t.Errorf("parallel: schedule replays to %v, search says %v", replayed, lt)
		}
	}
}

// TestOptimalDifferentialLight pins the canonicalized, pruned and parallel
// searches to the live reference search (SearchOptions zero value — exactly
// the pre-optimization exhaustive search) on every paper load for the banks
// where the reference search is cheap: single batteries, the 2xB1 pair of
// Table 5, and the cheap loads of the heavier banks. The heavy cells of
// 2xB2 and the mixed bank continue in TestOptimalDifferentialHeavy against
// recorded reference lifetimes.
func TestOptimalDifferentialLight(t *testing.T) {
	b1, b2 := battery.B1(), battery.B2()
	cheapB2 := map[string]bool{"CL 500": true, "CL alt": true, "ILs 500": true, "ILl 500": true,
		"ILs alt": true, "ILs r1": true, "ILs r2": true}
	type cell struct {
		bank     string
		bats     []battery.Params
		horizon  float64
		grid     float64
		loads    func(string) bool
		parallel bool
	}
	all := func(string) bool { return true }
	cells := []cell{
		{"1xB1", []battery.Params{b1}, 200, 0.01, all, false},
		{"2xB1", []battery.Params{b1, b1}, 200, 0.01, all, true},
		{"1xB2", []battery.Params{b2}, 600, 0.05, all, false},
		{"2xB2", []battery.Params{b2, b2}, 600, 0.05, func(n string) bool { return cheapB2[n] && n != "ILs alt" && n != "ILs r1" && n != "ILs r2" }, true},
		{"mixed", []battery.Params{b1, b2}, 400, 0.05, func(n string) bool { return n != "CL 250" && n != "ILs 250" && n != "ILl 250" }, true},
	}
	for _, c := range cells {
		for _, name := range load.PaperLoadNames {
			if !c.loads(name) {
				continue
			}
			c, name := c, name
			t.Run(c.bank+"/"+name, func(t *testing.T) {
				t.Parallel()
				ds, cl := diffGrid(t, c.bats, name, c.horizon, c.grid, c.grid)
				want, _, _, err := OptimalWithOptions(ds, cl, SearchOptions{})
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				checkSearch(t, ds, cl, want, c.parallel)
			})
		}
	}
}

// TestOptimalDifferentialHeavy completes the ten-loads × five-banks matrix
// on the cells where the reference search needs tens of seconds to minutes:
// the optimized searches must reproduce the recorded reference lifetimes
// exactly. The goldens were produced by OptimalWithOptions(..,
// SearchOptions{}) — the pre-optimization search — on the same grids; the
// live equality of the two searches on these very cells was verified once
// when recording them (see EXPERIMENTS.md).
func TestOptimalDifferentialHeavy(t *testing.T) {
	b1, b2 := battery.B1(), battery.B2()
	type cell struct {
		bank    string
		bats    []battery.Params
		horizon float64
		load    string
		want    float64
	}
	cells := []cell{
		// 2xB2 on the T = Gamma = 0.05 grid, horizon 600 min.
		{"2xB2", []battery.Params{b2, b2}, 600, "CL 250", 46.00},
		{"2xB2", []battery.Params{b2, b2}, 600, "ILs 250", 129.00},
		{"2xB2", []battery.Params{b2, b2}, 600, "ILs alt", 68.60},
		{"2xB2", []battery.Params{b2, b2}, 600, "ILs r1", 74.60},
		{"2xB2", []battery.Params{b2, b2}, 600, "ILs r2", 68.40},
		{"2xB2", []battery.Params{b2, b2}, 600, "ILl 250", 211.00},
		// Mixed B1+B2 bank on the same grid, horizon 400 min.
		{"mixed", []battery.Params{b1, b2}, 400, "CL 250", 26.20},
		{"mixed", []battery.Params{b1, b2}, 400, "ILs 250", 85.00},
		{"mixed", []battery.Params{b1, b2}, 400, "ILl 250", 145.00},
	}
	for _, c := range cells {
		c := c
		t.Run(c.bank+"/"+c.load, func(t *testing.T) {
			t.Parallel()
			if testing.Short() {
				t.Skip("heavy optimal cells")
			}
			ds, cl := diffGrid(t, c.bats, c.load, c.horizon, 0.05, 0.05)
			lt, schedule, _, err := OptimalWithStats(ds, cl)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lt-c.want) > 1e-9 {
				t.Errorf("lifetime %v, recorded reference %v", lt, c.want)
			}
			replayed, _, err := Run(ds, cl, Replay("diff-heavy", schedule))
			if err != nil {
				t.Fatal(err)
			}
			if replayed != lt {
				t.Errorf("schedule replays to %v, search says %v", replayed, lt)
			}
		})
	}
}

// TestOptimalPruningDifferential exercises the branch-and-bound in a regime
// where the charge bound actually binds — high available-charge fraction, so
// batteries die near the total-charge horizon — and holds the pruned search
// to the live reference: same lifetime with a strictly smaller explored
// state count and a non-zero pruned counter. Both searches are serial and
// deterministic, so their state counts are pinned exactly.
func TestOptimalPruningDifferential(t *testing.T) {
	hiC := battery.Params{Capacity: 1.2, C: 0.8, KPrime: 0.2, Label: "HiC"}
	bats := battery.Bank(hiC, 3)
	ds, cl := diffGrid(t, bats, "ILs alt", 200, 0.01, 0.01)
	want, _, ref, err := OptimalWithOptions(ds, cl, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lt, _, stats, err := OptimalWithStats(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	if lt != want {
		t.Fatalf("pruned search: %v, reference %v", lt, want)
	}
	if stats.Pruned == 0 {
		t.Error("charge bound never pruned in a supply-dominated regime")
	}
	if stats.States >= ref.States {
		t.Errorf("pruned+canonicalized search explored %d states, reference %d", stats.States, ref.States)
	}
	if stats.States != 1093 || ref.States != 17884 {
		t.Errorf("explored %d states (reference %d), want 1093 (reference 17884)", stats.States, ref.States)
	}
}

// TestOptimalBeyondEightBatteries: the search now handles homogeneous banks
// past the old 8-battery cap. Canonicalization is what makes this possible —
// the reference search needs millions of states for ten identical batteries
// (6,235,301 for the 10-battery cell below; recorded once, see
// EXPERIMENTS.md) where the canonical search needs a handful.
func TestOptimalBeyondEightBatteries(t *testing.T) {
	small := battery.Params{Capacity: 0.25, C: battery.ItsyC, KPrime: battery.ItsyKPrime, Label: "S"}
	for _, tc := range []struct {
		n    int
		want float64 // recorded from the reference search where feasible
	}{
		{10, 1.00},
		{12, 2.40},
	} {
		bats := battery.Bank(small, tc.n)
		ds, cl := diffGrid(t, bats, "ILs alt", 200, 0.01, 0.01)
		lt, schedule, stats, err := OptimalWithStats(ds, cl)
		if err != nil {
			t.Fatalf("%d batteries: %v", tc.n, err)
		}
		if math.Abs(lt-tc.want) > 1e-9 {
			t.Errorf("%d batteries: lifetime %v, want %v", tc.n, lt, tc.want)
		}
		if stats.States > 1000 {
			t.Errorf("%d identical batteries expanded %d states; canonicalization should collapse the bank", tc.n, stats.States)
		}
		replayed, _, err := Run(ds, cl, Replay("12batt", schedule))
		if err != nil {
			t.Fatal(err)
		}
		if replayed != lt {
			t.Errorf("%d batteries: schedule replays to %v, search says %v", tc.n, replayed, lt)
		}
		// Sanity: the optimum dominates the deterministic policies here too.
		for _, p := range []Policy{Sequential(), RoundRobin(), BestAvailable()} {
			plt, err := Lifetime(ds, cl, p)
			if err != nil {
				t.Fatal(err)
			}
			if plt > lt+1e-9 {
				t.Errorf("%d batteries: %s (%v) beats optimal (%v)", tc.n, p.Name(), plt, lt)
			}
		}
	}
	// A bank beyond the new cap still errors cleanly.
	bats := battery.Bank(small, MaxOptimalBatteries+1)
	ds, cl := diffGrid(t, bats, "ILs alt", 200, 0.01, 0.01)
	if _, _, err := Optimal(ds, cl); !errors.Is(err, ErrTooManyBatteries) {
		t.Fatalf("beyond MaxOptimalBatteries: %v, want ErrTooManyBatteries", err)
	}
	// Past 8 batteries the bank must contain interchangeable batteries —
	// canonicalization is what makes those sizes tractable, and 9+ distinct
	// types give it nothing to collapse.
	diverse := make([]battery.Params, 9)
	for i := range diverse {
		diverse[i] = battery.Params{
			Capacity: 0.25 + 0.05*float64(i), C: battery.ItsyC, KPrime: battery.ItsyKPrime,
		}
	}
	ds, cl = diffGrid(t, diverse, "ILs alt", 200, 0.01, 0.01)
	if _, _, err := Optimal(ds, cl); !errors.Is(err, ErrBankTooDiverse) {
		t.Fatalf("all-distinct 9-bank: %v, want ErrBankTooDiverse", err)
	}
	if _, _, err := OptimalParallel(ds, cl, 2); !errors.Is(err, ErrBankTooDiverse) {
		t.Fatalf("all-distinct 9-bank parallel: %v, want ErrBankTooDiverse", err)
	}
	// 9 batteries of few types stay allowed (8 small + 1 shifted).
	mixed := battery.Bank(small, 8)
	mixed = append(mixed, battery.Params{Capacity: 0.3, C: battery.ItsyC, KPrime: battery.ItsyKPrime})
	ds, cl = diffGrid(t, mixed, "ILs alt", 200, 0.01, 0.01)
	if _, _, err := Optimal(ds, cl); err != nil {
		t.Fatalf("two-type 9-bank: %v", err)
	}
}
