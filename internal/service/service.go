// Package service is the long-lived evaluation layer between the
// serializable scenario spec (internal/spec) and the sweep engine
// (internal/sweep). A Service answers Evaluate (one scenario cell) and
// Sweep (a whole grid) requests and bounds how many requests execute
// concurrently. With a result store, repeated and overlapping requests —
// the service is meant to sit behind cmd/batserve and many concurrent
// clients — evaluate each cell once and are served its stored line after.
// Sessions get their bank artifacts from CompileBank, so every session on
// one bank shares one artifact.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/obs"
	"batsched/internal/sched"
	"batsched/internal/spec"
	"batsched/internal/store"
	"batsched/internal/sweep"
)

// Options tune a Service.
type Options struct {
	// MaxConcurrent bounds how many requests execute at once; further
	// requests block (or fail when their context is cancelled). <= 0 means
	// runtime.NumCPU().
	MaxConcurrent int
	// Store, when set, is the cell-granular result store: every sweep
	// probes it per cell before evaluating and commits each computed cell
	// after, so overlapping sweeps evaluate only the cells no earlier sweep
	// has produced. Concurrent sweeps additionally coordinate in-flight
	// cells (see the flight map), so a shared cell is evaluated at most
	// once even when two sweeps miss it simultaneously.
	Store *store.Store
	// CellLatency, when set, observes the wall-clock seconds of every cell
	// the sweep engine actually evaluates (compile included). Nil is a
	// no-op.
	CellLatency *obs.Histogram
}

// bankCacheCap bounds the session bank-artifact map: sessions may open on
// any custom bank, so the map is cleared whenever it is full, the rule
// dkibam.Discretize follows for its tables.
const bankCacheCap = 64

// Service evaluates scenarios with bounded concurrency and shares session
// bank artifacts. It is safe for concurrent use.
type Service struct {
	sem     chan struct{}
	st      *store.Store   // nil = no cell-granular result caching
	cellLat *obs.Histogram // per-cell evaluation latency, nil = not observed

	// banks holds the session bank artifacts, keyed by bankKey.
	bankMu   sync.Mutex
	banks    map[string]*core.Compiled
	compiles atomic.Int64
	hits     atomic.Int64

	// flights tracks cells being evaluated right now, keyed by cell digest.
	// A sweep that misses the store claims the cell's flight before
	// evaluating; a concurrent sweep that misses the same cell parks on the
	// flight instead of evaluating it a second time.
	flightMu sync.Mutex
	flights  map[string]*flight

	cellHits       atomic.Int64
	cellsEvaluated atomic.Int64
	storeErrors    atomic.Int64

	// search accumulates the optimal solvers' SearchStats across every cell
	// this service actually evaluated (store hits re-serve stored counters
	// without re-counting them).
	searchMu sync.Mutex
	search   sched.SearchStats
}

// flight is one in-flight cell evaluation. The claimer either commits the
// cell to the store and resolves with the stored line, or abandons (sweep
// canceled, emit failed) with a nil line — waiters then re-claim and
// evaluate themselves, so an abandoned flight never strands a cell.
type flight struct {
	done chan struct{}
	line json.RawMessage // nil = abandoned
}

// New builds a Service.
func New(opts Options) *Service {
	workers := opts.MaxConcurrent
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Service{
		sem:     make(chan struct{}, workers),
		st:      opts.Store,
		cellLat: opts.CellLatency,
		flights: make(map[string]*flight),
	}
}

// Store returns the service's cell-granular result store (nil when none was
// configured).
func (s *Service) Store() *store.Store { return s.st }

// Stats reports the service's counters.
type Stats struct {
	// Compiles counts session bank artifacts built and kept by CompileBank;
	// Hits counts CompileBank calls answered with an artifact already kept.
	// Sweeps never touch them: their cells compile through the sweep and
	// are shared through the result store.
	Compiles int64
	Hits     int64
	// CellHits counts sweep cells served from the result store (bulk probe
	// plus waited-out in-flight evaluations); CellsEvaluated counts cells
	// actually executed. Together they are the incremental-sweep ledger: a
	// 90%-overlapping resubmission moves CellHits by 180 and
	// CellsEvaluated by 20.
	CellHits       int64
	CellsEvaluated int64
	// StoreErrors counts failed cell commits (file-backend trouble); a
	// commit failure only costs future dedup, never the sweep itself.
	StoreErrors int64
	// Search is the cumulative optimal-search effort (states, prunes, LP
	// bound evaluations, steals, shared-memo traffic) over every cell this
	// service evaluated itself — cells served from the result store do not
	// re-count the work that produced them.
	Search sched.SearchStats
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	s.searchMu.Lock()
	search := s.search
	s.searchMu.Unlock()
	return Stats{
		Compiles:       s.compiles.Load(),
		Hits:           s.hits.Load(),
		CellHits:       s.cellHits.Load(),
		CellsEvaluated: s.cellsEvaluated.Load(),
		StoreErrors:    s.storeErrors.Load(),
		Search:         search,
	}
}

// Result is one evaluated scenario cell in wire form.
type Result struct {
	Grid        string  `json:"grid"`
	Bank        string  `json:"bank"`
	Load        string  `json:"load"`
	Solver      string  `json:"solver"`
	LifetimeMin float64 `json:"lifetime_min"`
	Decisions   int     `json:"decisions"`
	// Stats reports the optimal search's work counters (states expanded,
	// memo hits, pruned branches); omitted for solvers without a search.
	// This is how perf improvements — and regressions — of the exact search
	// stay observable from /v1/run and /v1/sweep.
	Stats *sched.SearchStats `json:"stats,omitempty"`
	// Error is the per-cell failure; one bad cell does not abort a sweep.
	Error string `json:"error,omitempty"`
}

// SweepRequest asks for a whole scenario grid.
type SweepRequest struct {
	Scenario spec.Scenario `json:"scenario"`
	// Workers bounds the sweep's worker pool (0 = number of CPUs).
	Workers int `json:"workers,omitempty"`
}

// RunRequest asks for a single scenario cell.
type RunRequest = spec.Run

// InvalidRequestError wraps spec-level validation failures (unknown solver,
// malformed bank, ...) so transports can map them to client-error statuses
// without knowing every spec sentinel.
type InvalidRequestError struct{ Err error }

func (e *InvalidRequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying spec error for errors.Is checks.
func (e *InvalidRequestError) Unwrap() error { return e.Err }

// Evaluate runs one scenario cell. Spec-level problems (unknown solver,
// invalid bank, ...) come back as an error; a solver failure on a valid
// cell is reported in Result.Error.
func (s *Service) Evaluate(ctx context.Context, req RunRequest) (Result, error) {
	results, err := s.Sweep(ctx, SweepRequest{Scenario: req.Scenario(), Workers: 1})
	if err != nil {
		return Result{}, err
	}
	if len(results) != 1 {
		return Result{}, fmt.Errorf("service: run expanded to %d cells, want 1", len(results))
	}
	return results[0], nil
}

// Sweep evaluates every cell of the scenario grid and returns the results
// in deterministic nested order (grid, bank, load, solver): the
// SweepStreamLines lines, decoded.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) ([]Result, error) {
	var out []Result
	err := s.SweepStreamLines(ctx, req, func(sl SweepLine) error {
		var res Result
		if err := json.Unmarshal(sl.Line, &res); err != nil {
			return fmt.Errorf("service: cell %d line corrupt: %w", len(out), err)
		}
		out = append(out, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepLine is one emitted sweep cell in wire-line form.
type SweepLine struct {
	// Line is the cell's encoded NDJSON line without the trailing newline —
	// byte-identical to what json.Marshal produces for the Result. It is
	// only valid until the emit callback returns; retain via copy.
	Line []byte
	// Cached marks a line served from the cell store instead of evaluated.
	Cached bool
	// Stats points at the optimal-search work counters of an evaluated
	// cell; nil for cached lines and for solvers without a search.
	Stats *sched.SearchStats
}

// SweepStreamLines evaluates the scenario grid and emits each cell as soon
// as it and all its predecessors in the deterministic order are done, so
// consumers stream a stable order without waiting for the whole grid. Each
// cell arrives as its encoded NDJSON line (appending '\n' to every line
// reproduces the synchronous sweep endpoint's body byte for byte) plus
// whether it was served from the cell store — no per-line marshalling on
// the consumer's side, and cached cells pass the stored bytes straight
// through. An emit error stops further emission and is returned.
func (s *Service) SweepStreamLines(ctx context.Context, req SweepRequest, emit func(SweepLine) error) error {
	sp, err := req.Scenario.Compile()
	if err != nil {
		return &InvalidRequestError{Err: err}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The sweep span covers semaphore wait through last emit. Store outcome
	// and search effort are attached when it ends; localEval/localStats are
	// written only under the sweep's serialized OnResult and read after
	// sweep.Run returns.
	ctx, span := obs.StartSpan(ctx, "service.sweep")
	var localEval, localHits int64
	var localStats sched.SearchStats
	defer func() {
		if span == nil {
			return
		}
		span.SetInt("evaluated", localEval).SetInt("store_hits", localHits)
		if localStats.States > 0 {
			span.SetInt("search_states", localStats.States).
				SetInt("search_pruned", localStats.Pruned)
		}
		span.End()
	}()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return ctx.Err()
	}

	// sweepCtx aborts the sweep's remaining cells when the caller goes away
	// (ctx) or stops consuming (emit error) — abandoned requests must not
	// keep burning CPU while holding a semaphore slot. Its Done channel is
	// the sweep's cancel signal itself, so no cell starts once either has
	// happened.
	sweepCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := sp.Scenarios()
	span.SetInt("cells", int64(n))
	// Cell-store integration: one bulk probe up front (one lock, one
	// hit/miss ledger update for the whole grid), then per-cell claims for
	// the misses so concurrent sweeps never evaluate a shared cell twice.
	var (
		digests   []string
		cellLines []json.RawMessage
		claims    []*flight
	)
	if s.st != nil {
		var derr error
		digests, _, derr = cellDigestsCompiled(sp, req.Scenario.Solvers)
		if derr != nil {
			return derr
		}
		_, lookupSpan := obs.StartSpan(ctx, "store.lookup")
		var hits int
		cellLines, hits = s.st.LookupCells(digests)
		lookupSpan.SetInt("cells", int64(n)).SetInt("hits", int64(hits))
		lookupSpan.End()
		s.cellHits.Add(int64(hits))
		localHits = int64(hits)
		claims = make([]*flight, n)
		// Whatever happens below — emit error, cancellation, panic-free
		// early return — every claim this sweep took must be resolved, or
		// a concurrent sweep would park on it forever.
		defer func() {
			for i, f := range claims {
				if f != nil {
					s.resolveFlight(digests[i], f, nil)
				}
			}
		}()
	}

	// The ordered-emit buffer is pre-sized from the grid dimensions: out-of-
	// order completions park here until their predecessors are done. Slots
	// hold the compact sweep results; encoding happens once, at emit time,
	// into a single reused buffer.
	type slot struct {
		r     sweep.Result
		ready bool
	}
	slots := make([]slot, n)
	next := 0
	var emitErr error
	var encBuf bytes.Buffer
	enc := json.NewEncoder(&encBuf)

	// emitOne delivers the cell at index i (already ready).
	emitOne := func(i int) error {
		r := &slots[i].r
		if r.Cached {
			return emit(SweepLine{Line: cellLines[i], Cached: true})
		}
		res := fromSweep(*r)
		// A committed cell was already marshalled once on the commit path;
		// reuse the store-owned bytes instead of encoding twice.
		if cellLines != nil && cellLines[i] != nil {
			return emit(SweepLine{Line: cellLines[i], Stats: res.Stats})
		}
		encBuf.Reset()
		if err := enc.Encode(res); err != nil {
			return err
		}
		line := encBuf.Bytes()
		line = line[:len(line)-1] // Encode appends '\n'
		return emit(SweepLine{Line: line, Stats: res.Stats})
	}

	opts := sweep.Options{
		Workers:     req.Workers,
		Cancel:      sweepCtx.Done(),
		CellLatency: s.cellLat,
		Span:        span,
		OnResult: func(i int, r sweep.Result) {
			// Commit and flight resolution come first and run even after an
			// emit error: a concurrent sweep may be parked on this cell, and
			// the computed result is worth storing regardless of whether our
			// own consumer is still listening.
			if claims != nil && !r.Cached && claims[i] != nil {
				commitSpan := span.Child("store.commit")
				s.commitCell(i, digests, cellLines, claims, r)
				commitSpan.Set("cell", shortDigest(digests[i])).End()
			}
			if !r.Cached && !errors.Is(r.Err, sweep.ErrCanceled) {
				s.cellsEvaluated.Add(1)
				localEval++
				if r.Stats != nil {
					s.searchMu.Lock()
					s.search.Add(*r.Stats)
					s.searchMu.Unlock()
					localStats.Add(*r.Stats)
				}
			}
			if emitErr != nil {
				return
			}
			slots[i] = slot{r: r, ready: true}
			for next < n && slots[next].ready {
				if err := emitOne(next); err != nil {
					emitErr = err
					cancel()
					return
				}
				slots[next] = slot{} // free the buffered result early
				next++
			}
		},
	}
	if s.st != nil {
		opts.Lookup = func(i int) (sweep.Result, bool) {
			return s.lookupCell(i, digests, cellLines, claims, sweepCtx.Done(), span)
		}
	}
	if _, err := sweep.Run(sp, opts); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return emitErr
}

// lookupCell is the sweep Lookup hook: serve index i from the bulk probe, or
// wait out another sweep's in-flight evaluation, or claim the cell for this
// sweep (ok=false → the caller evaluates it).
func (s *Service) lookupCell(i int, digests []string, cellLines []json.RawMessage, claims []*flight, cancel <-chan struct{}, span *obs.Span) (sweep.Result, bool) {
	if cellLines[i] != nil {
		return sweep.Result{}, true
	}
	d := digests[i]
	for {
		s.flightMu.Lock()
		f, inFlight := s.flights[d]
		if !inFlight {
			// Re-probe the store under flightMu: a claimer commits its line
			// before it removes its flight, so a cell with neither has not
			// been committed and this sweep may claim it. The bulk probe
			// counted this cell's store miss; a line found now is a hit for
			// the service's ledger.
			if line, ok := s.st.PeekCell(d); ok {
				s.flightMu.Unlock()
				cellLines[i] = line
				s.cellHits.Add(1)
				return sweep.Result{}, true
			}
			f = &flight{done: make(chan struct{})}
			s.flights[d] = f
			s.flightMu.Unlock()
			claims[i] = f
			return sweep.Result{}, false
		}
		s.flightMu.Unlock()
		// Parked on another sweep's in-flight evaluation: the wait is a span
		// of its own — it is exactly the time the flight table saved or cost
		// this request.
		waitSpan := span.Child("service.flight_wait")
		waitSpan.Set("cell", shortDigest(d))
		select {
		case <-f.done:
			if f.line != nil {
				waitSpan.Set("outcome", "served").End()
				cellLines[i] = f.line
				s.cellHits.Add(1)
				return sweep.Result{}, true
			}
			// Abandoned (the claiming sweep was canceled): try again — the
			// next round either claims or parks on a newer flight.
			waitSpan.Set("outcome", "abandoned").End()
		case <-cancel:
			// Our own sweep is being canceled; report a miss and let the
			// runner mark the scenario canceled.
			waitSpan.Set("outcome", "canceled").End()
			return sweep.Result{}, false
		}
	}
}

// shortDigest abbreviates a cell digest for span attributes.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// commitCell stores the computed cell i in the result store and resolves
// its flight with the stored line. Canceled scenarios are never committed —
// their lines are not deterministic outputs of the cell — and abandon the
// flight instead so a parked sweep takes over.
func (s *Service) commitCell(i int, digests []string, cellLines []json.RawMessage, claims []*flight, r sweep.Result) {
	f := claims[i]
	claims[i] = nil
	d := digests[i]
	if errors.Is(r.Err, sweep.ErrCanceled) {
		s.resolveFlight(d, f, nil)
		return
	}
	line, err := json.Marshal(fromSweep(r))
	if err == nil {
		err = s.st.PutCell(d, line)
	}
	if err != nil {
		s.storeErrors.Add(1)
		s.resolveFlight(d, f, nil)
		return
	}
	// Hand waiters — and our own emit path, which has not run yet for this
	// index — the store-owned copy so every consumer shares one stable
	// allocation.
	stored, _ := s.st.PeekCell(d)
	if stored == nil {
		stored = line
	}
	cellLines[i] = stored
	s.resolveFlight(d, f, stored)
}

// resolveFlight publishes a flight outcome (nil line = abandoned) and
// removes it from the in-flight table.
func (s *Service) resolveFlight(digest string, f *flight, line json.RawMessage) {
	f.line = line
	s.flightMu.Lock()
	delete(s.flights, digest)
	s.flightMu.Unlock()
	close(f.done)
}

// fromSweep converts an engine result to wire form.
func fromSweep(r sweep.Result) Result {
	out := Result{
		Grid:        r.Grid,
		Bank:        r.Bank,
		Load:        r.Load,
		Solver:      r.Policy,
		LifetimeMin: r.Lifetime,
		Decisions:   r.Decisions,
		Stats:       r.Stats,
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return out
}

// CompileBank returns the shared streaming-bank artifact (an empty-load
// core.Compiled; see core.CompileBank) for a resolved bank on a grid, so
// every session on the same bank content shares one artifact and its
// pooled systems. An error is never kept. When two callers build the same
// bank at once the first artifact kept wins, so every caller gets one
// pointer.
func (s *Service) CompileBank(bats []battery.Params, grid sweep.GridSpec) (*core.Compiled, error) {
	key := bankKey(bats, grid)
	s.bankMu.Lock()
	c, ok := s.banks[key]
	s.bankMu.Unlock()
	if ok {
		s.hits.Add(1)
		return c, nil
	}
	c, err := core.CompileBank(bats, grid.StepMin, grid.UnitAmpMin)
	if err != nil {
		return nil, err
	}
	s.bankMu.Lock()
	defer s.bankMu.Unlock()
	if prev, ok := s.banks[key]; ok {
		s.hits.Add(1)
		return prev, nil
	}
	if s.banks == nil || len(s.banks) >= bankCacheCap {
		s.banks = make(map[string]*core.Compiled, bankCacheCap)
	}
	s.banks[key] = c
	s.compiles.Add(1)
	return c, nil
}

// bankKey is the resolved compile input of a bank artifact — grid sizes and
// battery parameters as IEEE float bits — so that two spec spellings of one
// bank (say, a preset and its explicit parameters) share one artifact.
// Names are deliberately excluded: they label results, not physics.
func bankKey(bats []battery.Params, grid sweep.GridSpec) string {
	p := preimagePool.Get().(*preimage)
	defer preimagePool.Put(p)
	p.buf = p.buf[:0]
	p.f64(grid.StepMin)
	p.f64(grid.UnitAmpMin)
	for _, b := range bats {
		p.f64(b.Capacity)
		p.f64(b.C)
		p.f64(b.KPrime)
	}
	return string(p.buf)
}
