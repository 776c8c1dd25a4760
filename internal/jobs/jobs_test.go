package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"batsched/internal/core"
	"batsched/internal/load"
	"batsched/internal/sched"
	"batsched/internal/service"
	"batsched/internal/spec"
	"batsched/internal/store"
	"batsched/internal/sweep"
)

// The test-only "test-gate" solver blocks each cell on the current gate
// channel (nil = no blocking) and records the load names it ran, so tests
// can hold jobs mid-flight and observe execution order.
var (
	gateRegister sync.Once
	gateMu       sync.Mutex
	gateCh       chan struct{}
	gateRan      []string
)

func setGate(ch chan struct{}) {
	gateMu.Lock()
	gateCh = ch
	gateRan = nil
	gateMu.Unlock()
}

func gateLog() []string {
	gateMu.Lock()
	defer gateMu.Unlock()
	return append([]string(nil), gateRan...)
}

func registerGateSolver() {
	gateRegister.Do(func() {
		spec.Register(spec.Builder{
			Name: "test-gate",
			Doc:  "test-only solver blocking on a gate channel",
			Build: func(json.RawMessage) (sweep.PolicyCase, error) {
				return sweep.PolicyCase{
					Name: "test-gate",
					Run: func(c *core.Compiled) (float64, int, error) {
						gateMu.Lock()
						ch := gateCh
						gateMu.Unlock()
						if ch != nil {
							<-ch
						}
						lt, err := c.PolicyLifetime(sched.BestAvailable())
						gateMu.Lock()
						// The sweep-level label is not visible here; the
						// compiled load length is. Paper loads snap their
						// horizon to whole periods, so tests that read the
						// log pick horizons that compile to distinct
						// lengths (40, 80, 120 min for ILs alt).
						gateRan = append(gateRan, fmt.Sprintf("h%.0f", c.Load().TotalDuration()))
						gateMu.Unlock()
						return lt, 0, err
					},
				}, nil
			},
		})
	})
}

// newManager wires a memory store into both the service and the manager,
// as batserve does: the service commits the cells jobs evaluate and the
// manager serves whole requests from them.
func newManager(t *testing.T, opts Options) (*Manager, *service.Service, *store.Store) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{Store: st})
	m := New(svc, st, opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
		st.Close()
	})
	return m, svc, st
}

// syncSweepLines runs req through the synchronous sweep path and returns
// its lines (copied).
func syncSweepLines(t *testing.T, svc *service.Service, req Request) []json.RawMessage {
	t.Helper()
	var lines []json.RawMessage
	err := svc.SweepStreamLines(context.Background(), service.SweepRequest{Scenario: req.Scenario},
		func(sl service.SweepLine) error {
			lines = append(lines, append(json.RawMessage(nil), sl.Line...))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// sameLines fails the test unless got and want hold the same lines.
func sameLines(t *testing.T, what string, got, want []json.RawMessage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", what, len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("%s: line %d differs:\ngot  %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

func smallSweep() Request {
	return Request{Scenario: spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   []spec.Load{{Paper: "CL alt"}, {Paper: "ILs alt"}},
		Solvers: []spec.Solver{{Name: "sequential"}, {Name: "bestof"}},
	}}
}

func waitDone(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSubmitRunMatchesSweepBytes: a job's result lines are byte-identical
// to what the synchronous sweep path of a service without a store emits
// for the same request.
func TestSubmitRunMatchesSweepBytes(t *testing.T) {
	m, _, _ := newManager(t, Options{Workers: 2})
	req := smallSweep()
	sub, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if sub.State != StateQueued && sub.State != StateRunning {
		t.Fatalf("fresh submission in state %s", sub.State)
	}
	if sub.TotalCases != 4 {
		t.Fatalf("total cases %d, want 4", sub.TotalCases)
	}
	final := waitDone(t, m, sub.ID)
	if final.State != StateDone || final.Error != "" {
		t.Fatalf("job finished %+v", final)
	}
	if final.DoneCases != 4 {
		t.Fatalf("done cases %d, want 4", final.DoneCases)
	}

	lines, err := m.Results(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := syncSweepLines(t, service.New(service.Options{}), req)
	sameLines(t, "job vs sync sweep", lines, want)
}

// TestResubmitServedFromStore is the dedup half of the acceptance: an
// identical resubmission is a store hit with zero cells re-evaluated.
func TestResubmitServedFromStore(t *testing.T) {
	m, _, _ := newManager(t, Options{Workers: 1})
	sub, err := m.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, sub.ID)
	first, err := m.Results(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	evaluated := m.Metrics().CasesEvaluated

	re, err := m.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if re.State != StateDone || !re.FromStore {
		t.Fatalf("resubmission not served from store: %+v", re)
	}
	if re.Digest != sub.Digest {
		t.Fatalf("digest drifted: %s vs %s", re.Digest, sub.Digest)
	}
	if got := m.Metrics().CasesEvaluated; got != evaluated {
		t.Fatalf("resubmission evaluated %d extra cases", got-evaluated)
	}
	second, err := m.Results(re.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if string(first[i]) != string(second[i]) {
			t.Fatalf("stored line %d differs", i)
		}
	}
	// One count per cell per submission: the first run's bulk probe missed
	// all 4 cells, the resubmission found all 4 at submit.
	mets := m.Metrics()
	if mets.Store.CellHits != 4 || mets.Store.CellMisses != 4 {
		t.Fatalf("store counters %+v, want 4 cell hits / 4 cell misses", mets.Store)
	}
}

// TestSyncSweepThenJobFromStore: a job whose cells a synchronous sweep
// already produced is served from the store — no queue, no evaluation —
// with the sweep's bytes.
func TestSyncSweepThenJobFromStore(t *testing.T) {
	m, svc, _ := newManager(t, Options{Workers: 1})
	req := smallSweep()
	want := syncSweepLines(t, svc, req)
	sub, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if sub.State != StateDone || !sub.FromStore {
		t.Fatalf("job after a sync sweep of the same cells: %+v", sub)
	}
	if got := m.Metrics().CasesEvaluated; got != 0 {
		t.Fatalf("job evaluated %d cases, want 0", got)
	}
	lines, err := m.Results(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameLines(t, "store-served job vs sync sweep", lines, want)
}

// TestCorruptCellReevaluated: a request whose stored cell was lost to
// quarantine is a miss, never a short result set — the job runs, evaluates
// exactly the lost cell, and returns the same bytes as before.
func TestCorruptCellReevaluated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	open := func() *Manager {
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		m := New(service.New(service.Options{Store: st}), st, Options{Workers: 1})
		t.Cleanup(func() { m.Shutdown(context.Background()); st.Close() })
		return m
	}
	m1 := open()
	first, err := m1.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m1, first.ID)
	want, err := m1.Results(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := m1.Store().Close(); err != nil {
		t.Fatal(err)
	}

	// Flip the last digit of the third cell line's lifetime: the JSON still
	// parses, its checksum does not, so replay quarantines it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := bytes.SplitAfter(data, []byte("\n"))
	if len(recs) < 3 {
		t.Fatalf("store file holds %d lines, want one per cell", len(recs))
	}
	at := bytes.Index(recs[2], []byte(`,"decisions"`)) - 1
	if at < 0 {
		t.Fatalf("no lifetime in %s", recs[2])
	}
	recs[2][at] ^= 1 // a digit stays a digit
	if err := os.WriteFile(path, bytes.Join(recs, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := open()
	if q := m2.Store().Counters().Quarantined; q != 1 {
		t.Fatalf("quarantined %d lines, want the corrupted one", q)
	}
	re, err := m2.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if re.FromStore {
		t.Fatalf("request with a quarantined cell served from the store: %+v", re)
	}
	final := waitDone(t, m2, re.ID)
	if final.State != StateDone || final.CachedCases != 3 {
		t.Fatalf("rerun %+v, want done with 3 cached cases", final)
	}
	if got := m2.Metrics().CasesEvaluated; got != 1 {
		t.Fatalf("rerun evaluated %d cells, want only the quarantined one", got)
	}
	lines, err := m2.Results(re.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameLines(t, "rerun vs first run", lines, want)
}

// TestStoreSurvivesRestart: a file-backed store serves a fresh manager (a
// "restarted server") without re-running anything.
func TestStoreSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m := New(service.New(service.Options{Store: st}), st, Options{Workers: 1})
	sub, err := m.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, sub.ID)
	first, _ := m.Results(sub.ID)
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(service.New(service.Options{Store: st2}), st2, Options{Workers: 1})
	defer func() { m2.Shutdown(context.Background()); st2.Close() }()
	re, err := m2.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !re.FromStore {
		t.Fatalf("restarted store missed: %+v", re)
	}
	lines, err := m2.Results(re.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if string(lines[i]) != string(first[i]) {
			t.Fatalf("line %d drifted across restart", i)
		}
	}
	if got := m2.Metrics().CasesEvaluated; got != 0 {
		t.Fatalf("restarted manager evaluated %d cases", got)
	}
}

// gatedRequest builds a one-cell test-gate sweep. Horizons are multiples of
// 40 so distinct requests digest differently AND the gate log (which keys
// on the load's total duration) can tell them apart; paper loads repeat
// whole periods to cover a horizon, so far-apart horizons never collide.
func gatedRequest(loadName string, priority int, horizon float64) Request {
	return Request{
		Priority: priority,
		Scenario: spec.Scenario{
			Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
			Loads:   []spec.Load{{Name: loadName, Paper: "ILs alt", HorizonMin: horizon}},
			Solvers: []spec.Solver{{Name: "test-gate"}},
		},
	}
}

// gateLabel is what the test-gate solver logs for a paper-load horizon.
func gateLabel(t *testing.T, horizon float64) string {
	t.Helper()
	l, err := load.Paper("ILs alt", horizon)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("h%.0f", l.TotalDuration())
}

func waitState(t *testing.T, m *Manager, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (is %s)", id, want, st.State)
}

// TestPriorityOrdering: with one worker pinned, a high-priority late
// arrival overtakes an earlier low-priority job.
func TestPriorityOrdering(t *testing.T) {
	registerGateSolver()
	gate := make(chan struct{})
	setGate(gate)
	defer setGate(nil)

	m, _, _ := newManager(t, Options{Workers: 1})
	a, err := m.Submit(gatedRequest("gate-A", 0, 40))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)
	b, err := m.Submit(gatedRequest("gate-B", 0, 80))
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Submit(gatedRequest("gate-C", 5, 120))
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitDone(t, m, a.ID)
	waitDone(t, m, b.ID)
	waitDone(t, m, c.ID)

	got := gateLog()
	want := []string{gateLabel(t, 40), gateLabel(t, 120), gateLabel(t, 80)}
	if len(got) != len(want) {
		t.Fatalf("ran %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v (priority ignored)", got, want)
		}
	}
}

func TestCancelQueued(t *testing.T) {
	registerGateSolver()
	gate := make(chan struct{})
	setGate(gate)
	defer setGate(nil)

	m, _, _ := newManager(t, Options{Workers: 1})
	a, _ := m.Submit(gatedRequest("cq-A", 0, 40))
	waitState(t, m, a.ID, StateRunning)
	b, _ := m.Submit(gatedRequest("cq-B", 0, 80))

	st, err := m.Cancel(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	if _, err := m.Results(b.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("results of cancelled job: %v", err)
	}
	// Cancelling a terminal job is an error.
	if _, err := m.Cancel(b.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("double cancel: %v", err)
	}
	close(gate)
	if st := waitDone(t, m, a.ID); st.State != StateDone {
		t.Fatalf("running job dragged down by a cancelled neighbour: %+v", st)
	}
	if ran := gateLog(); len(ran) != 1 || ran[0] != gateLabel(t, 40) {
		t.Fatalf("cancelled job still executed: %v", ran)
	}
}

// TestCancelRunning: cancelling mid-flight stops the remaining cells and
// lands the job in cancelled, not done. With one worker at most the cell in
// flight at Cancel runs; no cell starts after it.
func TestCancelRunning(t *testing.T) {
	registerGateSolver()
	gate := make(chan struct{})
	setGate(gate)
	defer setGate(nil)

	m, _, _ := newManager(t, Options{Workers: 1})
	req := Request{Scenario: spec.Scenario{
		Banks: []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads: []spec.Load{
			{Name: "cr-1", Paper: "ILs alt", HorizonMin: 40},
			{Name: "cr-2", Paper: "ILs alt", HorizonMin: 80},
			{Name: "cr-3", Paper: "ILs alt", HorizonMin: 120},
		},
		Solvers: []spec.Solver{{Name: "test-gate"}},
	}, Workers: 1}
	sub, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, sub.ID, StateRunning)
	if _, err := m.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	final := waitDone(t, m, sub.ID)
	if final.State != StateCancelled {
		t.Fatalf("cancelled job finished as %s", final.State)
	}
	if _, err := m.Results(sub.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("results of cancelled job: %v", err)
	}
	ran := gateLog()
	seen := map[string]bool{}
	for _, label := range ran {
		if seen[label] {
			t.Fatalf("gate log repeats %s, so it cannot say which cells ran: %v", label, ran)
		}
		seen[label] = true
	}
	if len(ran) > 1 {
		t.Fatalf("cells started after Cancel: ran %v", ran)
	}
	// The store holds exactly the completed cells — never a cell marked
	// canceled.
	cells, _, err := service.CellDigests(service.SweepRequest{Scenario: req.Scenario})
	if err != nil {
		t.Fatal(err)
	}
	stored, hits := m.Store().LookupCells(cells)
	if hits != len(ran) {
		t.Fatalf("store holds %d cells, %d ran (%v)", hits, len(ran), ran)
	}
	for i, line := range stored {
		if bytes.Contains(line, []byte(sweep.ErrCanceled.Error())) {
			t.Fatalf("cancelled job committed canceled cell %d: %s", i, line)
		}
	}
}

func TestQueueBound(t *testing.T) {
	registerGateSolver()
	gate := make(chan struct{})
	setGate(gate)
	defer setGate(nil)

	m, _, _ := newManager(t, Options{Workers: 1, QueueDepth: 1})
	a, _ := m.Submit(gatedRequest("qb-A", 0, 40))
	waitState(t, m, a.ID, StateRunning)
	if _, err := m.Submit(gatedRequest("qb-B", 0, 80)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(gatedRequest("qb-C", 0, 120)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound submission: %v", err)
	}
	close(gate)
}

// TestCancelledQueuedJobsFreeTheQueue: cancelling queued jobs must free
// their queue slots immediately — a queue full of cancelled corpses must
// not reject new submissions while the worker is busy.
func TestCancelledQueuedJobsFreeTheQueue(t *testing.T) {
	registerGateSolver()
	gate := make(chan struct{})
	setGate(gate)
	defer setGate(nil)

	m, _, _ := newManager(t, Options{Workers: 1, QueueDepth: 2})
	a, _ := m.Submit(gatedRequest("qf-A", 0, 40))
	waitState(t, m, a.ID, StateRunning)
	b, _ := m.Submit(gatedRequest("qf-B", 0, 80))
	c, _ := m.Submit(gatedRequest("qf-C", 0, 120))
	if _, err := m.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	if got := m.Metrics().QueueDepth; got != 0 {
		t.Fatalf("queue depth %d after cancelling all queued jobs, want 0", got)
	}
	// Both slots are free again while the worker is still busy.
	if _, err := m.Submit(gatedRequest("qf-D", 0, 160)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(gatedRequest("qf-E", 0, 200)); err != nil {
		t.Fatal(err)
	}
	close(gate)
}

// TestRetentionEvictsTerminalJobs: the job table is bounded; evicted jobs
// vanish from Get/List but their results stay addressable via the store.
func TestRetentionEvictsTerminalJobs(t *testing.T) {
	registerGateSolver() // ungated: the solver just runs
	setGate(nil)
	m, _, _ := newManager(t, Options{Workers: 1, RetainJobs: 2})
	var ids []string
	for _, h := range []float64{40, 80, 120, 160} {
		sub, err := m.Submit(gatedRequest(fmt.Sprintf("ret-%g", h), 0, h))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, m, sub.ID)
		ids = append(ids, sub.ID)
	}
	list := m.List()
	if len(list) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(list))
	}
	if list[0].ID != ids[2] || list[1].ID != ids[3] {
		t.Fatalf("retained %v, want the two newest %v", list, ids[2:])
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted job still visible: %v", err)
	}
	// The evicted job's results are still in the store: resubmitting its
	// spec is a hit, not a re-run.
	re, err := m.Submit(gatedRequest("ret-40", 0, 40))
	if err != nil {
		t.Fatal(err)
	}
	if !re.FromStore {
		t.Fatalf("evicted job's spec re-ran: %+v", re)
	}
}

func TestSubmitInvalidScenario(t *testing.T) {
	m, _, _ := newManager(t, Options{Workers: 1})
	req := smallSweep()
	req.Scenario.Solvers = []spec.Solver{{Name: "greedy"}}
	_, err := m.Submit(req)
	var invalid *service.InvalidRequestError
	if !errors.As(err, &invalid) {
		t.Fatalf("invalid scenario error %v", err)
	}
}

func TestUnknownJob(t *testing.T) {
	m, _, _ := newManager(t, Options{Workers: 1})
	if _, err := m.Get("job-404"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := m.Results("job-404"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := m.Cancel("job-404"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), "job-404"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
}

// TestOptimalJobAggregatesStats: optimal cells sum their search counters
// onto the job status.
func TestOptimalJobAggregatesStats(t *testing.T) {
	m, _, _ := newManager(t, Options{Workers: 1})
	req := Request{Scenario: spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   []spec.Load{{Paper: "ILs alt"}},
		Solvers: []spec.Solver{{Name: "optimal"}},
	}}
	sub, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, sub.ID)
	if final.State != StateDone {
		t.Fatalf("job %+v", final)
	}
	if final.Stats == nil || final.Stats.States == 0 {
		t.Fatalf("optimal job carries no aggregated stats: %+v", final)
	}
}

// TestShutdownDrains: shutdown lets the running job finish, cancels the
// queued one, and rejects new submissions.
func TestShutdownDrains(t *testing.T) {
	registerGateSolver()
	gate := make(chan struct{})
	setGate(gate)
	defer setGate(nil)

	st, _ := store.Open("")
	defer st.Close()
	m := New(service.New(service.Options{Store: st}), st, Options{Workers: 1})

	a, _ := m.Submit(gatedRequest("sd-A", 0, 40))
	waitState(t, m, a.ID, StateRunning)
	b, _ := m.Submit(gatedRequest("sd-B", 0, 80))

	done := make(chan error, 1)
	go func() { done <- m.Shutdown(context.Background()) }()

	// The queued job is cancelled promptly, before the drain completes.
	waitState(t, m, b.ID, StateCancelled)
	if _, err := m.Submit(gatedRequest("sd-C", 0, 120)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submission during shutdown: %v", err)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if st := waitDone(t, m, a.ID); st.State != StateDone {
		t.Fatalf("running job did not drain to done: %+v", st)
	}
}

// TestShutdownDeadlineCancelsRunning: when the drain deadline passes, the
// running job is cancelled instead of holding the pool forever.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	registerGateSolver()
	gate := make(chan struct{})
	setGate(gate)

	st, _ := store.Open("")
	defer st.Close()
	m := New(service.New(service.Options{Store: st}), st, Options{Workers: 1})

	a, _ := m.Submit(gatedRequest("sdl-A", 0, 40))
	waitState(t, m, a.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.Shutdown(ctx) }()
	// The gate holds the in-flight cell; the deadline fires, the manager
	// cancels the job, and once the cell unblocks the drain completes.
	time.Sleep(100 * time.Millisecond)
	close(gate)
	setGate(nil)
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want deadline exceeded", err)
	}
	final, err := m.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("deadline-cancelled job is %s", final.State)
	}
}

func TestMetrics(t *testing.T) {
	m, _, _ := newManager(t, Options{Workers: 3, QueueDepth: 7})
	sub, _ := m.Submit(smallSweep())
	waitDone(t, m, sub.ID)
	mets := m.Metrics()
	if mets.WorkersTotal != 3 || mets.QueueBound != 7 {
		t.Fatalf("config gauges %+v", mets)
	}
	if mets.JobsByState[StateDone] != 1 {
		t.Fatalf("done gauge %+v", mets.JobsByState)
	}
	if len(mets.JobsByState) != len(States) {
		t.Fatalf("states missing from metrics: %+v", mets.JobsByState)
	}
	if mets.CasesEvaluated != 4 {
		t.Fatalf("cases evaluated %d, want 4", mets.CasesEvaluated)
	}
}

// TestOverlappingJobEvaluatesOnlyNovelCells is the issue's acceptance at
// the job layer: a 90%-style overlapping resubmission reuses every shared
// cell from the store (CachedCases on the status, zero extra evaluated
// cases for them) and its result bytes are identical to a cold run of the
// same request.
func TestOverlappingJobEvaluatesOnlyNovelCells(t *testing.T) {
	m, _, _ := newManager(t, Options{Workers: 1})

	base := smallSweep() // 2 loads x 2 solvers = 4 cells
	a, err := m.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, a.ID)

	overlap := Request{Scenario: spec.Scenario{
		Banks: base.Scenario.Banks,
		Loads: append(append([]spec.Load{}, base.Scenario.Loads...),
			spec.Load{Paper: "ILl 500"}),
		Solvers: base.Scenario.Solvers,
	}} // 3 loads x 2 solvers = 6 cells, 4 shared
	evalBefore := m.Metrics().CasesEvaluated
	b, err := m.Submit(overlap)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, b.ID)
	if final.State != StateDone {
		t.Fatalf("overlap job finished %s: %s", final.State, final.Error)
	}
	if final.FromStore {
		t.Fatal("overlapping job with novel cells claimed a whole-request store hit")
	}
	if final.TotalCases != 6 || final.DoneCases != 6 || final.CachedCases != 4 {
		t.Fatalf("overlap job progress %d/%d with %d cached, want 6/6 with 4",
			final.DoneCases, final.TotalCases, final.CachedCases)
	}
	if got := m.Metrics().CasesEvaluated - evalBefore; got != 2 {
		t.Fatalf("overlap job evaluated %d cells, want only the 2 novel ones", got)
	}
	if got := m.Metrics().CasesFromCache; got != 4 {
		t.Fatalf("cache-served cases %d, want 4", got)
	}
	gotLines, err := m.Results(b.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Cold reference: the same overlap request on a fresh manager.
	cold, _, _ := newManager(t, Options{Workers: 1})
	c, err := cold.Submit(overlap)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cold, c.ID)
	wantLines, err := cold.Results(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameLines(t, "incremental vs cold run", gotLines, wantLines)

	// And the identical resubmission fast path still holds on top.
	re, err := m.Submit(overlap)
	if err != nil {
		t.Fatal(err)
	}
	if !re.FromStore || re.State != StateDone {
		t.Fatalf("identical resubmission not served from the store: %+v", re)
	}
}

// TestJobCellReuseAcrossRestart: with a file-backed store, an overlapping
// job after a restart reuses the previous process's cells.
func TestJobCellReuseAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")
	open := func() (*Manager, func()) {
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Options{Store: st})
		m := New(svc, st, Options{Workers: 1})
		return m, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			m.Shutdown(ctx)
			st.Close()
		}
	}

	m1, close1 := open()
	a, err := m1.Submit(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m1, a.ID)
	close1()

	m2, close2 := open()
	defer close2()
	overlap := smallSweep()
	overlap.Scenario.Loads = append(overlap.Scenario.Loads, spec.Load{Paper: "ILl 500"})
	b, err := m2.Submit(overlap)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m2, b.ID)
	if final.State != StateDone || final.CachedCases != 4 {
		t.Fatalf("restarted overlap job: state %s, %d cached cases, want done with 4", final.State, final.CachedCases)
	}
	if got := m2.Metrics().CasesEvaluated; got != 2 {
		t.Fatalf("restarted overlap job evaluated %d cells, want 2", got)
	}
}
