package session

import (
	"context"
	"errors"
	"testing"
	"time"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/obs"
	"batsched/internal/spec"
	"batsched/internal/sweep"
)

func b1Session(policy string) spec.Session {
	return spec.Session{
		Bank:   spec.Bank{Battery: &spec.Battery{Preset: "B1"}, Count: 2},
		Policy: spec.Solver{Name: policy},
	}
}

func TestManagerOpenValidation(t *testing.T) {
	m := NewManager(Options{})
	defer m.Shutdown(t.Context())
	if _, err := m.Open(spec.Session{Policy: spec.Solver{Name: "seq"}}); !errors.Is(err, spec.ErrEmptyBank) {
		t.Fatalf("empty bank = %v", err)
	}
	if _, err := m.Open(spec.Session{
		Bank:   spec.Bank{Battery: &spec.Battery{Preset: "B1"}},
		Policy: spec.Solver{Name: "optimal"},
	}); !errors.Is(err, spec.ErrUnknownOnlinePolicy) {
		t.Fatalf("offline-only solver = %v", err)
	}
	// Aliases canonicalize: the session reports the registry name.
	s, err := m.Open(b1Session("rr"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy() != "roundrobin" {
		t.Fatalf("policy = %q, want roundrobin", s.Policy())
	}
	if _, err := m.Get(s.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(nope) = %v", err)
	}
}

func TestManagerBoundsSessions(t *testing.T) {
	m := NewManager(Options{MaxSessions: 2})
	defer m.Shutdown(t.Context())
	a, err := m.Open(b1Session("seq"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(b1Session("seq")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(b1Session("seq")); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("third open = %v, want ErrTooManySessions", err)
	}
	// Closing frees a slot.
	if err := m.Close(a.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(b1Session("seq")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Close(nope) = %v", err)
	}
}

// TestIdleEvictionMidStream: an idle session is evicted by the janitor
// while a subscriber streams; the subscriber gets the final closed event.
func TestIdleEvictionMidStream(t *testing.T) {
	m := NewManager(Options{IdleTTL: 30 * time.Millisecond})
	defer m.Shutdown(t.Context())
	s, err := m.Open(b1Session("seq"))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var tel Telemetry
	if err := m.Step(s.ID(), 0.25, 1.0, &tel); err != nil {
		t.Fatal(err)
	}
	if ev := <-ch; ev.Kind != "step" {
		t.Fatalf("first event = %+v", ev)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				if got := m.Metrics().Evicted; got != 1 {
					t.Fatalf("evicted counter = %d, want 1", got)
				}
				if _, err := m.Get(s.ID()); !errors.Is(err, ErrNotFound) {
					t.Fatalf("evicted session still resolvable: %v", err)
				}
				return
			}
			if ev.Kind != "closed" {
				t.Fatalf("event while idling = %+v", ev)
			}
		case <-deadline:
			t.Fatal("session was never evicted")
		}
	}
}

// TestStepKeepsSessionAlive: regular steps reset the idle clock.
func TestStepKeepsSessionAlive(t *testing.T) {
	m := NewManager(Options{IdleTTL: 80 * time.Millisecond})
	defer m.Shutdown(t.Context())
	s, err := m.Open(b1Session("seq"))
	if err != nil {
		t.Fatal(err)
	}
	var tel Telemetry
	for i := 0; i < 8; i++ {
		if err := m.Step(s.ID(), 0, 1.0, &tel); err != nil {
			t.Fatalf("step %d (after %d evictions?): %v", i, m.Metrics().Evicted, err)
		}
		time.Sleep(25 * time.Millisecond) // well under the TTL
	}
	if _, err := m.Get(s.ID()); err != nil {
		t.Fatalf("active session evicted: %v", err)
	}
}

// TestShutdownClosesSubscribers: drain closes every session, final events
// reach open streams, and further opens and steps are refused.
func TestShutdownClosesSubscribers(t *testing.T) {
	m := NewManager(Options{})
	s, err := m.Open(b1Session("seq"))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ev, open := <-ch
	if !open || ev.Kind != "closed" {
		t.Fatalf("drain event = %+v (open=%v)", ev, open)
	}
	if _, open := <-ch; open {
		t.Fatal("subscriber channel survived shutdown")
	}
	if _, err := m.Open(b1Session("seq")); !errors.Is(err, ErrShutdown) {
		t.Fatalf("open after shutdown = %v", err)
	}
	var tel Telemetry
	if err := m.Step(s.ID(), 0, 1.0, &tel); !errors.Is(err, ErrNotFound) {
		t.Fatalf("step after shutdown = %v", err)
	}
	// Second shutdown is a no-op.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestManagerMetrics(t *testing.T) {
	compiles := 0
	stepLat := map[string]*obs.Histogram{}
	m := NewManager(Options{
		CompileBank: func(bats []battery.Params, grid sweep.GridSpec) (*core.Compiled, error) {
			compiles++
			return core.CompileBank(bats, grid.StepMin, grid.UnitAmpMin)
		},
		StepLatency: func(policy string) *obs.Histogram {
			h := obs.NewHistogram(nil)
			stepLat[policy] = h
			return h
		},
	})
	defer m.Shutdown(t.Context())
	a, err := m.Open(b1Session("seq"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open(b1Session("efq"))
	if err != nil {
		t.Fatal(err)
	}
	var tel Telemetry
	for i := 0; i < 3; i++ {
		if err := m.Step(a.ID(), 0.25, 1.0, &tel); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Step(b.ID(), 0.25, 1.0, &tel); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(b.ID()); err != nil {
		t.Fatal(err)
	}
	got := m.Metrics()
	if got.Open != 1 || got.Opened != 2 || got.Closed != 1 || got.Steps != 4 {
		t.Fatalf("metrics = %+v", got)
	}
	// Each policy's steps land in its own step-latency histogram.
	if len(stepLat) != 2 ||
		stepLat["efq"].Snapshot().Count() != 1 || stepLat["sequential"].Snapshot().Count() != 3 {
		t.Fatalf("per-policy step histograms = %+v", stepLat)
	}
	if compiles != 2 {
		t.Fatalf("CompileBank hook ran %d times, want 2", compiles)
	}
}
