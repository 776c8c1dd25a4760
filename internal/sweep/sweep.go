// Package sweep runs declarative scenario grids — battery banks × loads ×
// scheduling policies × discretization grids — over a bounded worker pool.
//
// The paper's result tables are exactly such grids (Table 5 is two B1
// batteries × ten loads × four schemes), and the roadmap's production goal
// is to evaluate far bigger ones. The runner exploits the core split between
// the immutable compiled artifact (shared discretizations + compiled load,
// built once per grid cell) and cheap per-run state: scenarios run
// concurrently on runtime.NumCPU()-bounded workers, results land in a
// pre-indexed slice, and the output order is the deterministic nested
// iteration order grid × bank × load × policy no matter how the goroutines
// interleave.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/dkibam"
	"batsched/internal/load"
	"batsched/internal/obs"
	"batsched/internal/sched"
)

// Bank is one battery-bank configuration of a sweep.
type Bank struct {
	// Name labels the bank in results (e.g. "2xB1").
	Name string
	// Batteries are the bank's battery parameters.
	Batteries []battery.Params
}

// BankOf builds a Bank of n identical batteries with a generated name.
func BankOf(name string, p battery.Params, n int) Bank {
	return Bank{Name: name, Batteries: battery.Bank(p, n)}
}

// LoadCase is one load of a sweep.
type LoadCase struct {
	// Name labels the load in results.
	Name string
	// Load is the piecewise-constant load.
	Load load.Load
}

// PaperLoads builds the named Section 5 test loads ("all" or nil = all ten),
// each covering at least horizon minutes.
func PaperLoads(names []string, horizon float64) ([]LoadCase, error) {
	if len(names) == 0 {
		names = load.PaperLoadNames
	}
	cases := make([]LoadCase, len(names))
	for i, name := range names {
		l, err := load.Paper(name, horizon)
		if err != nil {
			return nil, err
		}
		cases[i] = LoadCase{Name: name, Load: l}
	}
	return cases, nil
}

// PolicyCase is one scheduling scheme of a sweep: a deterministic policy,
// the optimal search, or an arbitrary evaluator over the compiled cell.
type PolicyCase struct {
	// Name labels the scheme in results.
	Name string
	// Policy is the deterministic scheme; nil when Optimal or Run is set.
	Policy sched.Policy
	// Optimal selects the exhaustive optimal search instead of a policy.
	Optimal bool
	// OptimalWorkers sets the optimal search's worker pool (0 = serial);
	// only meaningful with Optimal. Note that the sweep itself already runs
	// scenarios in parallel, so nested workers mainly help sparse grids.
	OptimalWorkers int
	// Run is a custom evaluator over the shared compiled cell; it takes
	// precedence over Policy and Optimal. This is how schemes beyond
	// deterministic policies — the analytic single-battery lifetime, the
	// timed-automata checker, the Monte-Carlo estimator — plug into a sweep.
	// It must be safe for concurrent calls on distinct cells.
	Run func(c *core.Compiled) (lifetime float64, decisions int, err error)
}

// Policies wraps deterministic policies as sweep cases.
func Policies(ps ...sched.Policy) []PolicyCase {
	cases := make([]PolicyCase, len(ps))
	for i, p := range ps {
		cases[i] = PolicyCase{Name: p.Name(), Policy: p}
	}
	return cases
}

// OptimalCase returns the optimal-search sweep case.
func OptimalCase() PolicyCase { return PolicyCase{Name: "optimal", Optimal: true} }

// GridSpec is one discretization grid of a sweep.
type GridSpec struct {
	// Name labels the grid in results (empty = derived from the sizes).
	Name string
	// StepMin is the time step T in minutes; UnitAmpMin the charge unit
	// Gamma in A·min.
	StepMin, UnitAmpMin float64
}

// PaperGrid is the paper's discretization grid (T = 0.01 min,
// Gamma = 0.01 A·min).
func PaperGrid() GridSpec {
	return GridSpec{Name: "paper", StepMin: dkibam.PaperStepMin, UnitAmpMin: dkibam.PaperUnitAmpMin}
}

// Spec is a declarative scenario grid: every combination of grid × bank ×
// load × policy is one scenario. Grids may be empty, which means the paper
// grid.
type Spec struct {
	Banks    []Bank
	Loads    []LoadCase
	Policies []PolicyCase
	Grids    []GridSpec
}

// Scenarios returns the number of scenarios the spec expands to.
func (s Spec) Scenarios() int {
	grids := len(s.Grids)
	if grids == 0 {
		grids = 1
	}
	return grids * len(s.Banks) * len(s.Loads) * len(s.Policies)
}

// Spec errors.
var (
	ErrNoBanks    = errors.New("sweep: spec has no banks")
	ErrNoLoads    = errors.New("sweep: spec has no loads")
	ErrNoPolicies = errors.New("sweep: spec has no policies")
)

func (s Spec) validate() error {
	switch {
	case len(s.Banks) == 0:
		return ErrNoBanks
	case len(s.Loads) == 0:
		return ErrNoLoads
	case len(s.Policies) == 0:
		return ErrNoPolicies
	}
	return nil
}

// Result is the outcome of one scenario.
type Result struct {
	// Grid, Bank, Load, Policy name the scenario cell.
	Grid, Bank, Load, Policy string
	// Lifetime is the system lifetime in minutes (0 when Err is set).
	Lifetime float64
	// Decisions is the number of scheduling decisions of the run.
	Decisions int
	// Stats holds the optimal search's work counters (states expanded, memo
	// hits, pruned branches); nil for solvers without a search.
	Stats *sched.SearchStats
	// Cached marks a scenario served by Options.Lookup instead of being
	// evaluated; callers count these to report sweep-level hit/miss ratios.
	Cached bool
	// Err is the per-scenario failure, if any; one bad cell does not abort
	// the sweep.
	Err error
}

// Options tune a sweep run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.NumCPU().
	Workers int
	// Compile, when set, overrides how a (grid, bank, load) cell is turned
	// into its compiled artifact; nil means core.Compile. Tests use it to
	// serve precompiled or counted cells. It must be safe for concurrent
	// use.
	Compile func(bank Bank, lc LoadCase, grid GridSpec) (*core.Compiled, error)
	// Lookup, when set, is consulted once per scenario with the scenario's
	// deterministic index before any evaluation. Returning ok serves the
	// scenario from the returned result — the cell is neither compiled nor
	// evaluated, and the result is delivered with Cached set. This is the
	// per-cell dedup hook: the evaluation service wires the cell-granular
	// result store here, so a sweep overlapping an earlier one evaluates
	// only the cells the store has not seen. It must be safe for concurrent
	// calls and may block (the service parks a worker here while another
	// in-flight sweep finishes computing the same cell).
	Lookup func(index int) (Result, bool)
	// OnResult, when set, is invoked once per completed scenario with the
	// scenario's deterministic index and its result. Calls are serialized
	// but arrive in completion order, not index order; the service's NDJSON
	// streaming reorders on top of this hook.
	OnResult func(index int, r Result)
	// Cancel, when non-nil, aborts the run early once the channel closes:
	// scenarios not yet started are marked with ErrCanceled instead of
	// being executed (in-flight ones finish). The service wires client
	// disconnects here so abandoned sweeps stop burning CPU.
	Cancel <-chan struct{}
	// CellLatency, when set, observes the wall-clock seconds each evaluated
	// (non-cached, non-canceled) scenario took, compile included. Nil is a
	// no-op.
	CellLatency *obs.Histogram
	// Span, when set, is the parent under which each evaluated scenario
	// records a "sweep.cell" child span carrying the cell's labels and
	// outcome. Nil (the common disarmed case) records nothing.
	Span *obs.Span
}

// ErrCanceled marks scenarios skipped because Options.Cancel fired.
var ErrCanceled = errors.New("sweep: run canceled")

// PanicError reports a panic recovered inside a sweep worker — a solver or
// callback blowing up on one scenario. The workers run on raw goroutines,
// so without this containment a single panicking cell would kill the whole
// process, not just its request. Run aborts the remaining scenarios and
// returns the first PanicError; the job layer marks the job failed with
// the captured stack.
type PanicError struct {
	// Value is the recovered panic value; Stack the goroutine stack at the
	// panic site.
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: scenario panicked: %v", e.Value)
}

// Run expands the spec into scenarios and executes them over a worker pool,
// returning one Result per scenario in deterministic nested order (grid,
// then bank, then load, then policy). Per-scenario failures are reported in
// Result.Err; Run itself only fails on an invalid spec.
func Run(spec Spec, opts Options) ([]Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	// Copied so that filling in default names never writes through to the
	// caller's slice (which would also race across concurrent Runs).
	grids := append([]GridSpec(nil), spec.Grids...)
	if len(grids) == 0 {
		grids = []GridSpec{PaperGrid()}
	}
	for i := range grids {
		if grids[i].Name == "" {
			grids[i].Name = fmt.Sprintf("T%g-G%g", grids[i].StepMin, grids[i].UnitAmpMin)
		}
	}

	// One immutable compiled artifact per (grid, bank, load) cell, shared by
	// every policy scenario of that cell and safe for concurrent use. Cells
	// compile lazily on first need, sync.Once-guarded: a cell whose every
	// scenario is served by Options.Lookup never compiles at all, which is
	// what makes overlapping-sweep resubmissions cheap. A cell that fails to
	// compile marks just its own scenarios as failed.
	type cell struct {
		once     sync.Once
		compiled *core.Compiled
		err      error
	}
	compile := opts.Compile
	if compile == nil {
		compile = func(bank Bank, lc LoadCase, grid GridSpec) (*core.Compiled, error) {
			return core.Compile(bank.Batteries, lc.Load, grid.StepMin, grid.UnitAmpMin)
		}
	}
	// A recovered worker panic aborts the rest of the run: scenarios not
	// yet started are marked ErrCanceled and Run returns the PanicError.
	// One struct, not three locals — the worker closures capture it as a
	// single heap cell.
	var panicked struct {
		aborted atomic.Bool
		mu      sync.Mutex
		err     *PanicError
	}
	canceled := func() bool {
		if panicked.aborted.Load() {
			return true
		}
		if opts.Cancel == nil {
			return false
		}
		select {
		case <-opts.Cancel:
			return true
		default:
			return false
		}
	}
	cells := make([]cell, len(grids)*len(spec.Banks)*len(spec.Loads))
	getCell := func(i, g, b, l int) (*core.Compiled, error) {
		c := &cells[i]
		c.once.Do(func() {
			c.compiled, c.err = compile(spec.Banks[b], spec.Loads[l], grids[g])
		})
		return c.compiled, c.err
	}

	results := make([]Result, spec.Scenarios())
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(results) {
		workers = len(results)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	var emitMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Each scenario runs inside its own recover frame: a panic
				// in a solver, compile, or callback poisons only this item,
				// aborts the remaining queue, and surfaces as Run's error —
				// the worker loop and the process survive.
				func() {
					defer func() {
						if p := recover(); p != nil {
							pe := &PanicError{Value: p, Stack: debug.Stack()}
							panicked.mu.Lock()
							if panicked.err == nil {
								panicked.err = pe
							}
							panicked.mu.Unlock()
							panicked.aborted.Store(true)
							results[i].Err = pe
						}
					}()
					p := i % len(spec.Policies)
					c := i / len(spec.Policies) // == cell index: ((g*B)+b)*L + l
					g := c / (len(spec.Banks) * len(spec.Loads))
					b := c / len(spec.Loads) % len(spec.Banks)
					l := c % len(spec.Loads)
					r := &results[i]
					served := false
					if opts.Lookup != nil && !canceled() {
						if res, ok := opts.Lookup(i); ok {
							*r = res
							r.Cached = true
							served = true
						}
					}
					// The scenario names always come from the spec, not the
					// lookup: the deterministic labeling must hold whatever a
					// cache returns.
					r.Grid, r.Bank, r.Load, r.Policy =
						grids[g].Name, spec.Banks[b].Name, spec.Loads[l].Name, spec.Policies[p].Name
					if !served {
						switch {
						case canceled():
							r.Err = ErrCanceled
						default:
							sp := opts.Span.Child("sweep.cell")
							start := time.Time{}
							if opts.CellLatency != nil || sp != nil {
								start = time.Now()
							}
							var compiled *core.Compiled
							compiled, r.Err = getCell(c, g, b, l)
							if r.Err == nil {
								r.Lifetime, r.Decisions, r.Stats, r.Err = runScenario(compiled, spec.Policies[p])
							}
							if !start.IsZero() {
								opts.CellLatency.Observe(time.Since(start).Seconds())
							}
							if sp != nil {
								sp.Set("grid", r.Grid).Set("bank", r.Bank).
									Set("load", r.Load).Set("policy", r.Policy)
								if r.Err != nil {
									sp.Set("error", r.Err.Error())
								} else if r.Stats != nil {
									sp.SetInt("states", r.Stats.States)
								}
								sp.End()
							}
						}
					}
					if opts.OnResult != nil {
						emitMu.Lock()
						opts.OnResult(i, *r)
						emitMu.Unlock()
					}
				}()
			}
		}()
	}
	for i := range results {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if panicked.err != nil {
		return results, panicked.err
	}
	return results, nil
}

// runScenario executes one scenario on a shared compiled artifact.
func runScenario(c *core.Compiled, pc PolicyCase) (lifetime float64, decisions int, stats *sched.SearchStats, err error) {
	var schedule sched.Schedule
	switch {
	case pc.Run != nil:
		lifetime, decisions, err = pc.Run(c)
		return lifetime, decisions, nil, err
	case pc.Optimal && pc.OptimalWorkers > 1:
		var st sched.SearchStats
		lifetime, schedule, st, err = c.OptimalLifetimeParallelWithStats(pc.OptimalWorkers)
		stats = &st
	case pc.Optimal:
		var st sched.SearchStats
		lifetime, schedule, st, err = c.OptimalLifetimeWithStats()
		stats = &st
	case pc.Policy != nil:
		// The pooled count variant: no Schedule is materialized and the
		// per-run System is recycled, so a policy scenario on a hot cell
		// costs only the chooser closures.
		lifetime, decisions, err = c.PolicyLifetimeCount(pc.Policy)
		return lifetime, decisions, nil, err
	default:
		return 0, 0, nil, fmt.Errorf("sweep: policy case %q has neither a policy nor the optimal flag", pc.Name)
	}
	return lifetime, len(schedule), stats, err
}
