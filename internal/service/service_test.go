package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/sched"
	"batsched/internal/spec"
	"batsched/internal/store"
	"batsched/internal/sweep"
)

// testExecutions counts runs of the test-only "test-counting" solver. The
// registry is process-global and Register panics on duplicates, so the
// solver is registered at most once even under go test -count=N.
var (
	testExecutions   atomic.Int64
	registerTestOnce sync.Once
)

func registerCountingSolver() {
	registerTestOnce.Do(func() {
		spec.Register(spec.Builder{
			Name: "test-counting",
			Doc:  "test-only solver counting its executions",
			Build: func(json.RawMessage) (sweep.PolicyCase, error) {
				return sweep.PolicyCase{
					Name: "test-counting",
					Run: func(c *core.Compiled) (float64, int, error) {
						testExecutions.Add(1)
						lt, err := c.PolicyLifetime(sched.BestAvailable())
						return lt, 0, err
					},
				}, nil
			},
		})
	})
	testExecutions.Store(0)
}

func twoB1ILsAlt() spec.Run {
	return spec.Run{
		Bank:   spec.Bank{Battery: &spec.Battery{Preset: "B1"}, Count: 2},
		Load:   spec.Load{Paper: "ILs alt"},
		Solver: spec.Solver{Name: "bestof"},
	}
}

func TestEvaluate(t *testing.T) {
	s := New(Options{})
	res, err := s.Evaluate(context.Background(), twoB1ILsAlt())
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	if res.Bank != "2xB1" || res.Load != "ILs alt" || res.Solver != "best-of-two" || res.Grid != "paper" {
		t.Fatalf("labels: %+v", res)
	}
	// Paper Table 5: best-of-two on ILs alt lives 16.28 min.
	if res.LifetimeMin < 16.27 || res.LifetimeMin > 16.29 {
		t.Fatalf("lifetime %.2f, want ~16.28", res.LifetimeMin)
	}
	if res.Decisions == 0 {
		t.Fatal("no decisions recorded")
	}
}

func TestEvaluateSpecError(t *testing.T) {
	s := New(Options{})
	req := twoB1ILsAlt()
	req.Solver = spec.Solver{Name: "greedy"}
	if _, err := s.Evaluate(context.Background(), req); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestEvaluateRuntimeErrorInResult(t *testing.T) {
	s := New(Options{})
	req := twoB1ILsAlt()
	sv, err := spec.NamedSolver("optimal-ta", spec.OptimalTAParams{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	req.Solver = sv
	res, err := s.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Error, "budget") {
		t.Fatalf("expected budget-exhausted cell error, got %+v", res)
	}
}

// TestSweepMatchesLibrary asserts the service path produces byte-identical
// lifetimes to a direct library sweep of the same scenario.
func TestSweepMatchesLibrary(t *testing.T) {
	sc := spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   []spec.Load{{Paper: "CL alt"}, {Paper: "ILs alt"}},
		Solvers: []spec.Solver{{Name: "sequential"}, {Name: "bestof"}, {Name: "optimal"}},
	}
	sp, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sweep.Run(sp, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	s := New(Options{})
	results, err := s.Sweep(context.Background(), SweepRequest{Scenario: sc, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(direct) {
		t.Fatalf("%d results, want %d", len(results), len(direct))
	}
	for i, r := range results {
		d := direct[i]
		if r.Bank != d.Bank || r.Load != d.Load || r.Solver != d.Policy {
			t.Fatalf("result %d order drifted: %+v vs %+v", i, r, d)
		}
		if r.LifetimeMin != d.Lifetime {
			t.Errorf("%s/%s/%s: service %v != library %v", r.Bank, r.Load, r.Solver, r.LifetimeMin, d.Lifetime)
		}
	}
}

// resolveBank resolves a spec bank to the battery parameters sessions pass
// to CompileBank.
func resolveBank(t *testing.T, b spec.Bank) []battery.Params {
	t.Helper()
	_, bats, err := b.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return bats
}

// TestConcurrentCacheReuse: concurrent sessions opening on one bank share a
// single bank artifact — every caller gets the identical pointer, and one
// artifact is kept.
func TestConcurrentCacheReuse(t *testing.T) {
	s := New(Options{})
	bats := resolveBank(t, spec.Bank{Battery: &spec.Battery{Preset: "B1"}, Count: 2})
	grid := sweep.PaperGrid()
	const clients = 16
	arts := make([]*core.Compiled, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arts[i], errs[i] = s.CompileBank(bats, grid)
		}()
	}
	wg.Wait()
	for i := range clients {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if arts[i] != arts[0] {
			t.Fatalf("client %d got artifact %p, client 0 got %p", i, arts[i], arts[0])
		}
	}
	if st := s.Stats(); st.Compiles != 1 || st.Hits != clients-1 {
		t.Fatalf("compiles %d hits %d for %d clients, want 1 and %d", st.Compiles, st.Hits, clients, clients-1)
	}
}

// TestCacheKeySemantics: a preset bank and its spelled-out parameters are
// the same physics and share one bank artifact; a different grid does not.
func TestCacheKeySemantics(t *testing.T) {
	s := New(Options{})
	grid := sweep.PaperGrid()
	preset, err := s.CompileBank(resolveBank(t, spec.Bank{Battery: &spec.Battery{Preset: "B1"}, Count: 2}), grid)
	if err != nil {
		t.Fatal(err)
	}
	explicit := resolveBank(t, spec.Bank{
		Name: "explicit",
		Batteries: []spec.Battery{
			{Capacity: 5.5, C: 0.166, KPrime: 0.122},
			{Capacity: 5.5, C: 0.166, KPrime: 0.122},
		},
	})
	if got, err := s.CompileBank(explicit, grid); err != nil || got != preset {
		t.Fatalf("spelled-out B1 bank: artifact %p (err %v), preset's %p", got, err, preset)
	}
	coarser, err := s.CompileBank(explicit, sweep.GridSpec{StepMin: 0.02, UnitAmpMin: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if coarser == preset {
		t.Fatal("distinct grid reused the paper grid's artifact")
	}
	if st := s.Stats(); st.Compiles != 2 || st.Hits != 1 {
		t.Fatalf("compiles %d hits %d, want 2 and 1", st.Compiles, st.Hits)
	}
}

// capBank is the i-th distinct one-battery bank of the bound tests: B1 with
// its rate constant nudged, so each i is a key of its own.
func capBank(i int) []battery.Params {
	b := battery.B1()
	b.KPrime += float64(i) * 1e-4
	return []battery.Params{b}
}

// TestCacheEviction: past its cap the bank map starts over, so a bank built
// before the clear is built afresh on its next request; an error is never
// kept.
func TestCacheEviction(t *testing.T) {
	s := New(Options{})
	grid := sweep.PaperGrid()
	if _, err := s.CompileBank(nil, grid); err == nil {
		t.Fatal("empty bank compiled")
	}
	first, err := s.CompileBank(capBank(0), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= bankCacheCap; i++ {
		if _, err := s.CompileBank(capBank(i), grid); err != nil {
			t.Fatal(err)
		}
		if n := len(s.banks); n > bankCacheCap {
			t.Fatalf("map holds %d artifacts after %d banks, cap %d", n, i+1, bankCacheCap)
		}
	}
	again, err := s.CompileBank(capBank(0), grid)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("bank 0 served from before the clear")
	}
	if st := s.Stats(); st.Compiles != bankCacheCap+2 || st.Hits != 0 {
		t.Fatalf("compiles %d hits %d, want %d and 0", st.Compiles, st.Hits, bankCacheCap+2)
	}
}

// TestCacheEvictionConcurrent: many sessions opening on more distinct banks
// than the cap never push the map past it, and every caller gets an
// artifact of its own bank.
func TestCacheEvictionConcurrent(t *testing.T) {
	const (
		clients = 8
		banks   = bankCacheCap + bankCacheCap/2
	)
	s := New(Options{})
	grid := sweep.PaperGrid()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Striding by the client index makes the goroutines race on
			// inserts and on the clear at the cap.
			for r := range banks {
				bats := capBank((c*7 + r) % banks)
				art, err := s.CompileBank(bats, grid)
				if err != nil {
					errs <- err
					return
				}
				if got := art.Batteries(); len(got) != 1 || got[0] != bats[0] {
					errs <- fmt.Errorf("bank %v served artifact of %v", bats, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.bankMu.Lock()
	defer s.bankMu.Unlock()
	if n := len(s.banks); n > bankCacheCap {
		t.Fatalf("map holds %d artifacts, cap %d", n, bankCacheCap)
	}
}

func TestSweepStreamOrder(t *testing.T) {
	sc := spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   []spec.Load{{Paper: "CL alt"}, {Paper: "ILs alt"}, {Paper: "CL 250"}},
		Solvers: []spec.Solver{{Name: "sequential"}, {Name: "bestof"}},
	}
	s := New(Options{})
	results, err := s.Sweep(context.Background(), SweepRequest{Scenario: sc, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range results {
		got = append(got, r.Load+"/"+r.Solver)
	}
	want := []string{
		"CL alt/sequential", "CL alt/best-of-two",
		"ILs alt/sequential", "ILs alt/best-of-two",
		"CL 250/sequential", "CL 250/best-of-two",
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream order[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSweepStreamEmitError(t *testing.T) {
	s := New(Options{})
	wantErr := context.Canceled
	calls := 0
	err := s.SweepStreamLines(context.Background(),
		SweepRequest{Scenario: twoB1ILsAlt().Scenario()},
		func(SweepLine) error { calls++; return wantErr })
	if err != wantErr {
		t.Fatalf("got %v, want the emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after failing, want 1", calls)
	}
}

func TestCancelledContext(t *testing.T) {
	s := New(Options{MaxConcurrent: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Evaluate(ctx, twoB1ILsAlt()); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestEmitErrorCancelsRemainingCells: a consumer that stops reading (a
// disconnected NDJSON client) must abort the sweep's pending cells rather
// than keep computing the whole grid.
func TestEmitErrorCancelsRemainingCells(t *testing.T) {
	registerCountingSolver()
	sc := spec.Scenario{
		Banks: []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads: []spec.Load{
			{Paper: "CL 250"}, {Paper: "CL 500"}, {Paper: "CL alt"},
			{Paper: "ILs 250"}, {Paper: "ILs 500"}, {Paper: "ILs alt"},
		},
		Solvers: []spec.Solver{{Name: "test-counting"}},
	}
	s := New(Options{})
	emits := 0
	wantErr := context.Canceled
	// Workers: 1 makes the sequence strict: cell 0 runs, its emit fails,
	// and every later cell must be skipped as canceled — not executed.
	err := s.SweepStreamLines(context.Background(), SweepRequest{Scenario: sc, Workers: 1},
		func(SweepLine) error { emits++; return wantErr })
	if err != wantErr {
		t.Fatalf("got %v, want the emit error", err)
	}
	if emits != 1 {
		t.Fatalf("emit called %d times after failing, want 1", emits)
	}
	if got := testExecutions.Load(); got != 1 {
		t.Fatalf("%d cells executed after the consumer vanished, want 1", got)
	}
}

// sweepLines collects a line-path sweep: the raw NDJSON lines (copied) and
// the per-line cached flags.
func sweepLines(t *testing.T, s *Service, sc spec.Scenario) (lines []string, cached []bool) {
	t.Helper()
	err := s.SweepStreamLines(context.Background(), SweepRequest{Scenario: sc, Workers: 2},
		func(sl SweepLine) error {
			lines = append(lines, string(sl.Line))
			cached = append(cached, sl.Cached)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return lines, cached
}

// TestSweepCellStoreIncremental is the issue's acceptance scenario at the
// service layer: a sweep overlapping an earlier one evaluates only the
// novel cells, and its bytes are identical to a cold run of the same
// request.
func TestSweepCellStoreIncremental(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Store: st})

	base := spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   []spec.Load{{Paper: "CL alt"}, {Paper: "ILs alt"}},
		Solvers: []spec.Solver{{Name: "sequential"}, {Name: "bestof"}},
	}
	overlap := base
	overlap.Loads = append([]spec.Load{}, base.Loads...)
	overlap.Loads = append(overlap.Loads, spec.Load{Paper: "ILl 500"})

	_, cachedA := sweepLines(t, s, base)
	for i, c := range cachedA {
		if c {
			t.Fatalf("cold sweep cell %d reported cached", i)
		}
	}
	if got := s.Stats().CellsEvaluated; got != 4 {
		t.Fatalf("cold sweep evaluated %d cells, want 4", got)
	}

	linesB, cachedB := sweepLines(t, s, overlap)
	if len(linesB) != 6 {
		t.Fatalf("overlap sweep emitted %d lines, want 6", len(linesB))
	}
	nCached := 0
	for _, c := range cachedB {
		if c {
			nCached++
		}
	}
	if nCached != 4 {
		t.Fatalf("overlap sweep served %d cells from the store, want the 4 shared ones (flags %v)", nCached, cachedB)
	}
	if got := s.Stats().CellsEvaluated; got != 6 {
		t.Fatalf("after overlap sweep %d cells evaluated in total, want 6 (4 base + 2 novel)", got)
	}

	// Byte-identity: a cold run of the overlap request on a storeless
	// service must produce exactly the same lines.
	coldLines, _ := sweepLines(t, New(Options{}), overlap)
	if len(coldLines) != len(linesB) {
		t.Fatalf("cold run emitted %d lines, want %d", len(coldLines), len(linesB))
	}
	for i := range coldLines {
		if coldLines[i] != linesB[i] {
			t.Fatalf("line %d differs between cached and cold runs:\ncached: %s\ncold:   %s", i, linesB[i], coldLines[i])
		}
	}
}

// TestSweepStreamDecodesStoredCells: the struct-returning path must yield
// full results for cache-served cells too (the /v1/run 422 discrimination
// and library consumers depend on the decoded fields).
func TestSweepStreamDecodesStoredCells(t *testing.T) {
	st, _ := store.Open("")
	defer st.Close()
	s := New(Options{Store: st})
	req := twoB1ILsAlt()
	first, err := s.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("store-served result drifted: %+v vs %+v", again, first)
	}
	if again.LifetimeMin < 16.27 || again.LifetimeMin > 16.29 {
		t.Fatalf("lifetime %v, want ~16.28", again.LifetimeMin)
	}
	if got := s.Stats().CellsEvaluated; got != 1 {
		t.Fatalf("evaluated %d cells for two identical runs, want 1", got)
	}
}

// testSlowExecutions counts runs of the test-only "test-slow-counting"
// solver, whose per-cell sleep keeps sweeps in flight long enough for
// concurrent submissions to overlap.
var (
	testSlowExecutions   atomic.Int64
	registerTestSlowOnce sync.Once
)

func registerSlowCountingSolver() {
	registerTestSlowOnce.Do(func() {
		spec.Register(spec.Builder{
			Name: "test-slow-counting",
			Doc:  "test-only solver counting executions with a per-cell delay",
			Build: func(json.RawMessage) (sweep.PolicyCase, error) {
				return sweep.PolicyCase{
					Name: "test-slow-counting",
					Run: func(c *core.Compiled) (float64, int, error) {
						testSlowExecutions.Add(1)
						time.Sleep(10 * time.Millisecond)
						lt, err := c.PolicyLifetime(sched.BestAvailable())
						return lt, 0, err
					},
				}, nil
			},
		})
	})
	testSlowExecutions.Store(0)
}

// TestConcurrentSweepsEvaluateSharedCellsOnce: simultaneous sweeps sharing
// cells must compile and evaluate each shared cell at most once — the
// in-flight table parks the loser on the winner's flight instead of
// re-running the cell. The slow solver keeps both sweeps in flight
// together; the assertion holds for any interleaving (a sweep that arrives
// late reuses the store instead of the flight).
func TestConcurrentSweepsEvaluateSharedCellsOnce(t *testing.T) {
	registerSlowCountingSolver()
	st, _ := store.Open("")
	defer st.Close()
	s := New(Options{Store: st, MaxConcurrent: 4})
	sc := spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   []spec.Load{{Paper: "CL alt"}, {Paper: "ILs alt"}, {Paper: "CL 250"}, {Paper: "ILs 250"}},
		Solvers: []spec.Solver{{Name: "test-slow-counting"}},
	}
	const sweeps = 4
	outputs := make([][]string, sweeps)
	var wg sync.WaitGroup
	errs := make(chan error, sweeps)
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- s.SweepStreamLines(context.Background(), SweepRequest{Scenario: sc, Workers: 2},
				func(sl SweepLine) error {
					outputs[i] = append(outputs[i], string(sl.Line))
					return nil
				})
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := testSlowExecutions.Load(); got != 4 {
		t.Fatalf("%d evaluations of 4 distinct cells across %d concurrent sweeps, want 4", got, sweeps)
	}
	if got := s.Stats().CellsEvaluated; got != 4 {
		t.Fatalf("service counted %d evaluated cells, want 4", got)
	}
	for i := 1; i < sweeps; i++ {
		if len(outputs[i]) != len(outputs[0]) {
			t.Fatalf("sweep %d emitted %d lines, sweep 0 emitted %d", i, len(outputs[i]), len(outputs[0]))
		}
		for j := range outputs[i] {
			if outputs[i][j] != outputs[0][j] {
				t.Fatalf("sweep %d line %d differs:\n%s\nvs\n%s", i, j, outputs[i][j], outputs[0][j])
			}
		}
	}
}

// TestAbandonedFlightDoesNotStrandWaiters: a sweep that claims a cell and
// is then canceled must hand the cell over — a concurrent sweep parked on
// the flight re-claims and evaluates it rather than hanging or inheriting
// a canceled line.
func TestAbandonedFlightDoesNotStrandWaiters(t *testing.T) {
	registerSlowCountingSolver()
	st, _ := store.Open("")
	defer st.Close()
	s := New(Options{Store: st, MaxConcurrent: 4})
	sc := spec.Scenario{
		Banks:   []spec.Bank{{Battery: &spec.Battery{Preset: "B1"}, Count: 2}},
		Loads:   []spec.Load{{Paper: "CL alt"}, {Paper: "ILs alt"}},
		Solvers: []spec.Solver{{Name: "test-slow-counting"}},
	}
	// The first sweep dies on its first emit; its unfinished claims are
	// abandoned.
	wantErr := fmt.Errorf("consumer gone")
	err := s.SweepStreamLines(context.Background(), SweepRequest{Scenario: sc, Workers: 1},
		func(SweepLine) error { return wantErr })
	if err != wantErr {
		t.Fatalf("got %v, want the emit error", err)
	}
	// The second sweep must complete every cell with real results.
	lines, _ := sweepLines(t, s, sc)
	if len(lines) != 2 {
		t.Fatalf("emitted %d lines, want 2", len(lines))
	}
	for i, l := range lines {
		if strings.Contains(l, "error") {
			t.Fatalf("line %d carries an error after an abandoned flight: %s", i, l)
		}
	}
}
