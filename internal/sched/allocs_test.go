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
