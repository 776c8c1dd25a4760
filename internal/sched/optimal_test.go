package sched

import (
	"math"
	"testing"

	"batsched/internal/load"
)

// TestTable5Optimal pins the optimal lifetimes of Table 5 (two B1
// batteries). The engine-exact values sit within 4 steps (0.08 min) of the
// paper's; both columns are asserted. The serial search is deterministic, so
// the states it expands are pinned exactly too: a change that alters how
// much work proves the optimum updates this table on purpose.
func TestTable5Optimal(t *testing.T) {
	if testing.Short() {
		t.Skip("optimal search over all loads is slow")
	}
	ds := b1Pair(t)
	want := map[string]float64{ // engine-exact
		"CL 250": 12.00, "CL 500": 4.54, "CL alt": 6.46,
		"ILs 250": 40.76, "ILs 500": 10.48, "ILs alt": 16.90,
		"ILs r1": 20.48, "ILs r2": 14.52,
		"ILl 250": 78.92, "ILl 500": 18.68,
	}
	paper := map[string]float64{
		"CL 250": 12.04, "CL 500": 4.58, "CL alt": 6.48,
		"ILs 250": 40.80, "ILs 500": 10.48, "ILs alt": 16.91,
		"ILs r1": 20.52, "ILs r2": 14.54,
		"ILl 250": 78.96, "ILl 500": 18.68,
	}
	states := map[string]int64{
		"CL 250": 529, "CL 500": 20, "CL alt": 40,
		"ILs 250": 24048, "ILs 500": 28, "ILs alt": 85,
		"ILs r1": 170, "ILs r2": 92,
		"ILl 250": 139819, "ILl 500": 34,
	}
	for name, w := range want {
		cl := compiled(t, name, 200)
		got, schedule, stats, err := OptimalWithStats(ds, cl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.States != states[name] {
			t.Errorf("%s: %d states expanded, want %d", name, stats.States, states[name])
		}
		if math.Abs(got-w) > 1e-9 {
			t.Errorf("%s: optimal %v, want %v (engine-exact)", name, got, w)
		}
		if math.Abs(got-paper[name]) > 0.081 {
			t.Errorf("%s: optimal %v vs paper %v (beyond 4 steps)", name, got, paper[name])
		}
		// The returned schedule must reproduce the optimal lifetime.
		replayed, _, err := Run(ds, cl, Replay("opt", schedule))
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if replayed != got {
			t.Errorf("%s: schedule replays to %v, optimal says %v", name, replayed, got)
		}
	}
}

// TestOptimalAltPairAgainstReference pins the Table 5 showcase cell, two B1
// batteries on ILs alt at the paper grid, against the reference search
// (SearchOptions zero value): both prove the same 16.90 min optimum, and
// the pruned, canonicalized search expands a fixed fraction of the
// reference's states. Both counts are exact; the serial search is
// deterministic.
func TestOptimalAltPairAgainstReference(t *testing.T) {
	ds, cl := b1Pair(t), compiled(t, "ILs alt", 200)
	want, _, ref, err := OptimalWithOptions(ds, cl, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lt, _, stats, err := OptimalWithStats(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lt-16.90) > 1e-9 || lt != want {
		t.Fatalf("optimal %v, reference %v, want 16.90 (Table 5)", lt, want)
	}
	if stats.States != 85 || ref.States != 253 {
		t.Errorf("expanded %d states (reference %d), want 85 (reference 253)", stats.States, ref.States)
	}
}

// TestOptimalDominatesPolicies: the optimal lifetime is an upper bound for
// every deterministic scheme on every load.
func TestOptimalDominatesPolicies(t *testing.T) {
	ds := b1Pair(t)
	for _, name := range []string{"CL alt", "ILs alt", "ILs r1", "ILs r2", "ILs 500", "ILl 500"} {
		cl := compiled(t, name, 200)
		opt, _, err := Optimal(ds, cl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range []Policy{Sequential(), RoundRobin(), BestAvailable()} {
			lt, err := Lifetime(ds, cl, p)
			if err != nil {
				t.Fatal(err)
			}
			if lt > opt+1e-9 {
				t.Errorf("%s: %s (%v) beats optimal (%v)", name, p.Name(), lt, opt)
			}
		}
	}
}

// TestOptimalImprovementShapes: the paper's headline observations — the
// optimal scheduler gains up to ~32% over round robin on ILs alt and ~26%
// on ILs r1, but nothing on ILs 500.
func TestOptimalImprovementShapes(t *testing.T) {
	ds := b1Pair(t)
	gain := func(name string) float64 {
		cl := compiled(t, name, 200)
		opt, _, err := Optimal(ds, cl)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := Lifetime(ds, cl, RoundRobin())
		if err != nil {
			t.Fatal(err)
		}
		return 100 * (opt - rr) / rr
	}
	if g := gain("ILs alt"); g < 28 || g > 36 {
		t.Errorf("ILs alt optimal gain %.1f%%, paper 31.9%%", g)
	}
	if g := gain("ILs r1"); g < 22 || g > 30 {
		t.Errorf("ILs r1 optimal gain %.1f%%, paper 26.2%%", g)
	}
	if g := gain("ILs 500"); g > 1 {
		t.Errorf("ILs 500 optimal gain %.1f%%, paper 0%%", g)
	}
	if g := gain("ILl 500"); g < 14 || g > 20 {
		t.Errorf("ILl 500 optimal gain %.1f%%, paper 17.0%%", g)
	}
}

// TestOptimalSingleBattery: with one battery there is nothing to schedule;
// the optimum equals the plain discrete lifetime.
func TestOptimalSingleBattery(t *testing.T) {
	ds := b1Pair(t)[:1]
	cl := compiled(t, "ILs 250", 200)
	opt, schedule, err := Optimal(ds, cl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt-10.84) > 1e-9 {
		t.Fatalf("single-battery optimal %v, want 10.84", opt)
	}
	for _, c := range schedule {
		if c.Battery != 0 {
			t.Fatal("single-battery schedule uses a phantom battery")
		}
	}
}

// TestOptimalThreeBatteries: the search generalises beyond the paper's two
// batteries; with three B1 cells the optimal lifetime exceeds the
// two-battery optimum and every three-battery policy.
func TestOptimalThreeBatteries(t *testing.T) {
	if testing.Short() {
		t.Skip("three-battery search")
	}
	d := b1Pair(t)[0]
	ds3 := []*load.Compiled{}
	_ = ds3
	three := b1Pair(t)
	three = append(three, d)
	cl := compiled(t, "ILs alt", 200)
	opt3, _, err := Optimal(three, cl)
	if err != nil {
		t.Fatal(err)
	}
	opt2, _, err := Optimal(three[:2], cl)
	if err != nil {
		t.Fatal(err)
	}
	if opt3 <= opt2 {
		t.Fatalf("three batteries (%v) not better than two (%v)", opt3, opt2)
	}
	for _, p := range []Policy{Sequential(), RoundRobin(), BestAvailable()} {
		lt, err := Lifetime(three, cl, p)
		if err != nil {
			t.Fatal(err)
		}
		if lt > opt3+1e-9 {
			t.Errorf("three-battery %s (%v) beats optimal (%v)", p.Name(), lt, opt3)
		}
	}
}

func TestOptimalHorizonError(t *testing.T) {
	ds := b1Pair(t)
	cl := compiled(t, "ILs 250", 5) // far too short for two batteries
	if _, _, err := Optimal(ds, cl); err == nil {
		t.Fatal("no error for an exhausted horizon")
	}
}
