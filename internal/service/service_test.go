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

// TestConcurrentCacheReuse is the issue's acceptance test: many concurrent
// clients asking for the same (bank, load, grid) share a single Compiled
// artifact.
func TestConcurrentCacheReuse(t *testing.T) {
	s := New(Options{MaxConcurrent: 8})
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Evaluate(context.Background(), twoB1ILsAlt())
			if err == nil && res.Error != "" {
				err = context.DeadlineExceeded // any sentinel; the text matters below
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compiles != 1 {
		t.Fatalf("compiled %d times for %d identical clients, want 1", st.Compiles, clients)
	}
	if st.Hits != clients-1 {
		t.Fatalf("cache hits %d, want %d", st.Hits, clients-1)
	}
	if st.Entries != 1 {
		t.Fatalf("cache entries %d, want 1", st.Entries)
	}
}

// TestCacheKeySemantics: a preset and its spelled-out parameters are the
// same physics and must share one artifact; a different grid must not.
func TestCacheKeySemantics(t *testing.T) {
	s := New(Options{})
	ctx := context.Background()

	if _, err := s.Evaluate(ctx, twoB1ILsAlt()); err != nil {
		t.Fatal(err)
	}
	explicit := twoB1ILsAlt()
	explicit.Bank = spec.Bank{
		Name: "explicit",
		Batteries: []spec.Battery{
			{Capacity: 5.5, C: 0.166, KPrime: 0.122},
			{Capacity: 5.5, C: 0.166, KPrime: 0.122},
		},
	}
	if _, err := s.Evaluate(ctx, explicit); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compiles != 1 {
		t.Fatalf("equivalent banks compiled %d times, want 1", st.Compiles)
	}

	coarser := twoB1ILsAlt()
	coarser.Grid = &spec.Grid{StepMin: 0.02, UnitAmpMin: 0.02}
	if _, err := s.Evaluate(ctx, coarser); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compiles != 2 {
		t.Fatalf("distinct grid reused stale artifact (compiles %d, want 2)", st.Compiles)
	}
}

func TestCacheEviction(t *testing.T) {
	s := New(Options{CacheEntries: 2})
	ctx := context.Background()
	for _, name := range []string{"CL 250", "CL 500", "CL alt"} {
		req := twoB1ILsAlt()
		req.Load = spec.Load{Paper: name, HorizonMin: 50}
		if _, err := s.Evaluate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("cache entries %d, want bound 2", st.Entries)
	}
}

// evictionCell builds the i-th distinct cell of the eviction tests: inline
// loads whose durations differ by construction, so each i resolves to its
// own cache key (paper loads snap horizons to whole periods and would
// collide).
func evictionCell(i int) spec.Run {
	req := twoB1ILsAlt()
	req.Load = spec.Load{
		Name:     fmt.Sprintf("evict-%d", i),
		Segments: []spec.Segment{{DurationMin: 20 + float64(i), CurrentA: 0.25}},
	}
	return req
}

// TestCacheEvictionConcurrent hammers the FIFO eviction path from many
// goroutines over far more distinct cells than the cache bound and asserts
// the invariants the lock is supposed to protect: the entry count never
// exceeds the bound, the insertion-order book matches the map exactly, and
// every evaluation still returns a correct result (eviction must force
// recompiles, never corrupt artifacts).
func TestCacheEvictionConcurrent(t *testing.T) {
	const (
		bound   = 3
		cells   = 12
		clients = 24
		rounds  = 3
	)
	s := New(Options{MaxConcurrent: 8, CacheEntries: bound})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Distinct inline durations are distinct resolved loads,
				// hence distinct cache keys; striding by the client index
				// makes the goroutines fight over insertion and eviction
				// order.
				req := evictionCell((c + r) % cells)
				res, err := s.Evaluate(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				if res.Error != "" || res.LifetimeMin <= 0 {
					errs <- fmt.Errorf("cell %d/%d: %+v", c, r, res)
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	checkBook := func() {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.cache) > bound {
			t.Fatalf("cache holds %d entries, bound %d", len(s.cache), bound)
		}
		if len(s.cache) != len(s.order) {
			t.Fatalf("order book has %d keys, cache %d", len(s.order), len(s.cache))
		}
		seen := map[string]bool{}
		for _, key := range s.order {
			if seen[key] {
				t.Fatalf("key %s appears twice in the order book", key)
			}
			seen[key] = true
			if _, ok := s.cache[key]; !ok {
				t.Fatalf("order book lists evicted key %s", key)
			}
		}
	}
	checkBook()

	// Deterministic tail: two serial passes over all 12 cells in order. With
	// a 3-entry FIFO, visiting cell i always finds {i-3, i-2, i-1} cached, so
	// at most the bound's worth of leftovers from the concurrent phase can
	// hit — every other visit must recompile an evicted cell. That pins the
	// eviction-and-recompile path without depending on goroutine timing.
	before := s.compiles.Load()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < cells; i++ {
			if _, err := s.Evaluate(ctx, evictionCell(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if delta := s.compiles.Load() - before; delta < 2*cells-bound {
		t.Fatalf("serial eviction passes recompiled %d cells, want >= %d", delta, 2*cells-bound)
	}
	checkBook()
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

// TestConcurrentSweepsEvaluateSharedCellsOnce extends the compiled cache's
// sync.Once-per-entry rule to evaluation: simultaneous sweeps sharing cells
// must compile and evaluate each shared cell at most once — the in-flight
// table parks the loser on the winner's flight instead of re-running the
// cell. The slow solver keeps both sweeps in flight together; the assertion
// holds for any interleaving (a sweep that arrives late reuses the store
// instead of the flight).
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
