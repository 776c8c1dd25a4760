package sched

import (
	"testing"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
)

// TestPolicyLifetimeAllocationFree pins the zero-allocation contract of a
// policy run on a reused system: restoring the construction state and
// running best-of-two to bank death allocates nothing, on the alternating
// and the long intermittent paper loads.
func TestPolicyLifetimeAllocationFree(t *testing.T) {
	for _, loadName := range []string{"ILs alt", "ILl 500"} {
		ds, cl := diffGrid(t, battery.Bank(battery.B1(), 2), loadName, 200, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
		sys, err := dkibam.NewSystem(ds, cl)
		if err != nil {
			t.Fatal(err)
		}
		start := sys.SaveState(nil)
		p := BestAvailable()
		allocs := testing.AllocsPerRun(50, func() {
			sys.RestoreState(start)
			if _, err := sys.Run(AdaptChooser(p.NewChooser())); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("2xB1/%s/bestof: %v allocs/op, want 0", loadName, allocs)
		}
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestOptimalAllocationCeilings holds the serial optimal search at the
// allocation counts measured when the pins were introduced, on the paper
// grid: the two 2xB1 Table 5 cells, the high-c bank where the charge bound
// binds, and the homogeneous 4xB1 bank that canonicalization collapses. The
// 2xB1 counts never varied and are pinned exactly. The other two varied
// between single runs (3xHiC 1189–1190, 4xB1 23059–23063), so their pins are
// ceilings at the largest count seen.
func TestOptimalAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b1 := battery.B1()
	hiC := battery.Params{Capacity: 1.2, C: 0.8, KPrime: 0.2, Label: "HiC"}
	for _, tc := range []struct {
		name   string
		bats   []battery.Params
		load   string
		runs   int
		allocs float64
		exact  bool
	}{
		{"2xB1/ILs alt", battery.Bank(b1, 2), "ILs alt", 20, 159, true},
		{"2xB1/ILs r1", battery.Bank(b1, 2), "ILs r1", 20, 249, true},
		{"3xHiC/ILs alt", battery.Bank(hiC, 3), "ILs alt", 20, 1190, false},
		// About 0.1 s per search: one measured run.
		{"4xB1/CL 500", battery.Bank(b1, 4), "CL 500", 1, 23063, false},
	} {
		ds, cl := diffGrid(t, tc.bats, tc.load, 200, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
		allocs := testing.AllocsPerRun(tc.runs, func() {
			if _, _, _, err := OptimalWithStats(ds, cl); err != nil {
				t.Fatal(err)
			}
		})
		switch {
		case tc.exact && allocs != tc.allocs:
			t.Errorf("optimal %s: %v allocs/op, want %v", tc.name, allocs, tc.allocs)
		case allocs > tc.allocs:
			t.Errorf("optimal %s: %v allocs/op, ceiling %v", tc.name, allocs, tc.allocs)
		}
	}
}
