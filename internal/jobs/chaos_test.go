// Chaos tests for the job layer: panic containment, bounded retries,
// per-job deadlines, and the randomized fault-schedule differential — with
// faults injected everywhere at rate p, jobs that do complete must return
// results byte-identical to the fault-free run.
package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"batsched/internal/core"
	"batsched/internal/faults"
	"batsched/internal/sched"
	"batsched/internal/service"
	"batsched/internal/spec"
	"batsched/internal/store"
	"batsched/internal/sweep"
)

func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		return n
	}
	return 20260807
}

func noSleep(time.Duration) {}

var chaosSolvers registerOnce

type registerOnce struct{ done bool }

func registerChaosSolvers() {
	if chaosSolvers.done {
		return
	}
	chaosSolvers.done = true
	spec.Register(spec.Builder{
		Name: "test-panic",
		Doc:  "test-only solver that panics on every cell",
		Build: func(json.RawMessage) (sweep.PolicyCase, error) {
			return sweep.PolicyCase{
				Name: "test-panic",
				Run: func(*core.Compiled) (float64, int, error) {
					panic("chaos: solver bomb")
				},
			}, nil
		},
	})
	spec.Register(spec.Builder{
		Name: "test-slow",
		Doc:  "test-only solver that sleeps per cell",
		Build: func(json.RawMessage) (sweep.PolicyCase, error) {
			return sweep.PolicyCase{
				Name: "test-slow",
				Run: func(c *core.Compiled) (float64, int, error) {
					time.Sleep(20 * time.Millisecond)
					lt, err := c.PolicyLifetime(sched.BestAvailable())
					return lt, 0, err
				},
			}, nil
		},
	})
}

// A panicking solver must mark the job failed with the stack in its
// status, and the worker — and the process — must survive to run the next
// job.
func TestJobPanicMarksFailedWorkerSurvives(t *testing.T) {
	registerChaosSolvers()
	m, _, _ := newManager(t, Options{Workers: 1, Sleep: noSleep})
	bad := Request{Scenario: spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   []spec.Load{{Paper: "CL alt"}},
		Solvers: []spec.Solver{{Name: "test-panic"}},
	}}
	sub, err := m.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, sub.ID)
	if final.State != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "panic: ") || !strings.Contains(final.Error, "chaos: solver bomb") {
		t.Fatalf("panic value missing from status error: %q", final.Error)
	}
	if !strings.Contains(final.Error, "goroutine") {
		t.Fatalf("stack trace missing from status error: %.200q", final.Error)
	}
	// Panics are final: no retry burned on them.
	if final.Attempts != 1 {
		t.Fatalf("panicking job attempts = %d, want 1", final.Attempts)
	}
	if got := m.Metrics().Panics; got != 1 {
		t.Fatalf("Metrics.Panics = %d, want 1", got)
	}
	// The single worker survived: a healthy job still completes.
	ok, err := m.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, m, ok.ID); st.State != StateDone {
		t.Fatalf("post-panic job state = %s (%s)", st.State, st.Error)
	}
}

// A transient fault on the first attempt is retried and the job completes,
// with the attempt count visible in its status.
func TestJobTransientFaultRetried(t *testing.T) {
	inj := faults.New(chaosSeed(t), faults.Rule{Op: OpJobRun, After: 1, Count: 1})
	m, _, _ := newManager(t, Options{Workers: 1, Injector: inj, Sleep: noSleep})
	sub, err := m.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, sub.ID)
	if final.State != StateDone || final.Error != "" {
		t.Fatalf("retried job finished %+v", final)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", final.Attempts)
	}
	if got := m.Metrics().Retries; got != 1 {
		t.Fatalf("Metrics.Retries = %d, want 1", got)
	}
}

// A fault that persists through the whole retry budget fails the job with
// the injected error, after exactly 1 + MaxRetries attempts.
func TestJobRetryBudgetExhausted(t *testing.T) {
	inj := faults.New(chaosSeed(t), faults.Rule{Op: OpJobRun, P: 1})
	m, _, _ := newManager(t, Options{Workers: 1, MaxRetries: 2, Injector: inj, Sleep: noSleep})
	sub, err := m.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, sub.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "injected fault") {
		t.Fatalf("error = %q, want the injected fault", final.Error)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", final.Attempts)
	}
}

// A job that overruns its deadline fails — it is not reported as
// cancelled, and the deadline is named in the error.
func TestJobDeadlineFails(t *testing.T) {
	registerChaosSolvers()
	m, _, _ := newManager(t, Options{Workers: 1, Sleep: noSleep})
	req := Request{
		Scenario: spec.Scenario{
			Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
			Loads:   []spec.Load{{Paper: "CL alt"}, {Paper: "ILs alt"}, {Paper: "CL 250"}},
			Solvers: []spec.Solver{{Name: "test-slow"}},
		},
		Workers:    1,
		TimeoutSec: 0.03,
	}
	sub, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, sub.ID)
	if final.State != StateFailed {
		t.Fatalf("deadline job state = %s, want failed (err %q)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Fatalf("error = %q, want a deadline error", final.Error)
	}
	// Deadlines are final: one attempt only.
	if final.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", final.Attempts)
	}
}

// The manager-level default deadline applies when the request names none,
// and a request cannot exceed it.
func TestJobTimeoutDefaultsAndCaps(t *testing.T) {
	registerChaosSolvers()
	m, _, _ := newManager(t, Options{Workers: 1, JobTimeout: 30 * time.Millisecond, Sleep: noSleep})
	req := Request{
		Scenario: spec.Scenario{
			Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
			Loads:   []spec.Load{{Paper: "CL alt"}, {Paper: "ILs alt"}, {Paper: "CL 250"}},
			Solvers: []spec.Solver{{Name: "test-slow"}},
		},
		Workers:    1,
		TimeoutSec: 60, // must be capped by the manager's 30ms
	}
	sub, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, m, sub.ID); final.State != StateFailed ||
		!strings.Contains(final.Error, "30ms") {
		t.Fatalf("capped-deadline job finished %+v", final)
	}
}

// The chaos differential: with faults injected at rate p across the store
// backend (I/O errors, torn writes, fsync failures) and the job runner
// (transient errors, panics), the process never dies, and every job that
// completes returns results byte-identical to the fault-free run. The
// store file must reopen cleanly afterwards, and any cell it serves must
// match the reference bytes too.
func TestChaosDifferentialFaultSchedule(t *testing.T) {
	registerChaosSolvers()
	req := Request{Scenario: spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   []spec.Load{{Paper: "CL alt"}, {Paper: "ILs alt"}, {Paper: "CL 250"}},
		Solvers: []spec.Solver{{Name: "sequential"}, {Name: "bestof"}},
	}}

	// Fault-free reference run.
	ref, _, _ := newManager(t, Options{Workers: 2})
	sub, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, ref, sub.ID); st.State != StateDone {
		t.Fatalf("reference run failed: %+v", st)
	}
	refLines, err := ref.Results(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	cells, _, err := service.CellDigests(service.SweepRequest{Scenario: req.Scenario})
	if err != nil {
		t.Fatal(err)
	}

	completed, failed := 0, 0
	var firedTotal int64
	base := chaosSeed(t)
	for round := int64(0); round < 4; round++ {
		seed := base + round
		inj := faults.New(seed,
			faults.Rule{Op: faults.OpStoreWrite, P: 0.25},
			faults.Rule{Op: faults.OpStoreWrite, P: 0.10, Torn: true},
			faults.Rule{Op: faults.OpStoreSync, P: 0.20},
			faults.Rule{Op: OpJobRun, P: 0.25},
			faults.Rule{Op: OpJobRun, P: 0.15, Panic: true},
		)
		path := filepath.Join(t.TempDir(), "chaos.ndjson")
		st, err := store.OpenWith(store.Options{
			Path:            path,
			Sync:            store.SyncInterval,
			SyncInterval:    time.Millisecond,
			WrapFile:        faults.WrapStore(inj),
			Sleep:           noSleep,
			BreakerCooldown: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Options{Store: st})
		m := New(svc, st, Options{Workers: 2, Injector: inj, Sleep: noSleep})

		for i := 0; i < 5; i++ {
			sub, err := m.Submit(req)
			if err != nil {
				t.Fatalf("seed %d submit %d: %v", seed, i, err)
			}
			final := waitDone(t, m, sub.ID)
			switch final.State {
			case StateDone:
				completed++
				lines, err := m.Results(sub.ID)
				if err != nil {
					t.Fatal(err)
				}
				if len(lines) != len(refLines) {
					t.Fatalf("seed %d job %d: %d lines, want %d", seed, i, len(lines), len(refLines))
				}
				for k := range lines {
					if string(lines[k]) != string(refLines[k]) {
						t.Fatalf("seed %d job %d line %d diverged under faults:\n got %s\nwant %s",
							seed, i, k, lines[k], refLines[k])
					}
				}
			case StateFailed:
				failed++
			default:
				t.Fatalf("seed %d job %d: unexpected terminal state %s", seed, i, final.State)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		m.Shutdown(ctx)
		cancel()
		st.Close() // may sync through remaining injected faults; error is fine
		firedTotal += inj.Fired("")

		// Crash-restart leg: reopen the battered file with a healthy
		// backend. It must open cleanly, and every cell it serves must
		// match the reference bytes exactly.
		re, err := store.Open(path)
		if err != nil {
			t.Fatalf("seed %d: store did not reopen after chaos: %v", seed, err)
		}
		lines, _ := re.LookupCells(cells)
		for k, line := range lines {
			if line != nil && string(line) != string(refLines[k]) {
				t.Fatalf("seed %d: reopened store cell %d diverged:\n got %s\nwant %s",
					seed, k, line, refLines[k])
			}
		}
		re.Close()
	}
	if completed == 0 {
		t.Fatal("no job completed under any fault schedule; differential proved nothing")
	}
	if firedTotal == 0 {
		t.Fatal("no fault ever fired; differential proved nothing")
	}
	t.Logf("chaos differential: %d completed (byte-identical), %d failed cleanly, %d faults fired",
		completed, failed, firedTotal)
}
