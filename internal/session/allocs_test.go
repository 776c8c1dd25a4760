package session

import (
	"testing"

	"batsched/internal/sched"
)

// TestSteadyStepAllocationFree pins the zero-allocation contract of the
// steady-state online step: two 0.25 A minutes then an idle minute, so both
// the decision and the recovery paths run, on a live 2xB1 sequential
// session whose telemetry buffer is reused. The 11 steps (one warm-up plus
// ten measured) end before the pattern exhausts the bank at about 15.5 min,
// so no reopen is measured.
func TestSteadyStepAllocationFree(t *testing.T) {
	s := openSession(t, bankArtifact(t, 2), sched.Sequential())
	defer s.Close("test")
	var tel Telemetry
	n := 0
	allocs := testing.AllocsPerRun(10, func() {
		cur := 0.25
		if n%3 == 2 {
			cur = 0
		}
		n++
		if err := s.Step(cur, 1.0, &tel); err != nil {
			t.Fatal(err)
		}
	})
	if tel.Dead {
		t.Fatalf("bank died after %d steps; the run must stay in steady state", n)
	}
	if allocs != 0 {
		t.Errorf("session step: %v allocs/op, want 0", allocs)
	}
}
