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

// TestSessionStepThroughReopenAllocationFree runs the steady-step pattern of
// TestSteadyStepAllocationFree through many bank deaths, as a serving loop
// would: when the 2xB1 sequential session dies it is closed and reopened
// from the artifact's pool. Each death lands at the same deterministic
// lifetime, and over 1,000 steps the reopens amortize to 0 allocs per step.
func TestSessionStepThroughReopenAllocationFree(t *testing.T) {
	art := bankArtifact(t, 2)
	var (
		s      *Session
		tel    Telemetry
		n      int
		deaths int
	)
	allocs := testing.AllocsPerRun(1000, func() {
		if s == nil {
			s = openSession(t, art, sched.Sequential())
		}
		cur := 0.25
		if n%3 == 2 {
			cur = 0
		}
		n++
		if err := s.Step(cur, 1.0, &tel); err != nil {
			t.Fatal(err)
		}
		if tel.Dead {
			if tel.LifetimeMin != 15.48 {
				t.Fatalf("death %d at %v min, want 15.48", deaths+1, tel.LifetimeMin)
			}
			deaths++
			s.Close("test")
			s, n = nil, 0
		}
	})
	if s != nil {
		s.Close("test")
	}
	if deaths < 10 {
		t.Fatalf("%d deaths over 1,001 steps; the reopen path was not exercised", deaths)
	}
	if allocs != 0 {
		t.Errorf("session step through reopen: %v allocs/op, want 0", allocs)
	}
}
