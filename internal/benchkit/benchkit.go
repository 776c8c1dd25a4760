// Package benchkit is the reproducible benchmark harness behind
// cmd/batbench: a pinned grid of scenarios (the paper's banks and loads
// through the registry solvers' hot paths) measured with a self-contained
// timing loop and emitted as machine-readable reports (BENCH_<n>.json).
// Committed reports seed the repo's perf trajectory: every future PR runs
// the same grid, appends its report, and CI fails when a case regresses
// beyond the configured ratio against the committed baseline.
//
// The optimal-search cases additionally run the reference search (no
// canonicalization, no pruning — the pre-optimization algorithm) once and
// record the explored-state and wall-clock ratios, which is how the
// branch-and-bound speedups stay measured instead of anecdotal.
package benchkit

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/dkibam"
	"batsched/internal/jobs"
	"batsched/internal/load"
	"batsched/internal/obs"
	"batsched/internal/sched"
	"batsched/internal/service"
	"batsched/internal/session"
	"batsched/internal/spec"
	"batsched/internal/store"
	"batsched/internal/sweep"
)

// Schema identifies the report format; bump on incompatible changes.
const Schema = 1

// Measurement is one timed case.
type Measurement struct {
	Iterations  int64 `json:"iterations"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// Baseline is the reference optimal search (SearchOptions zero value) run
// once on the same cell, with the resulting improvement ratios.
type Baseline struct {
	Ns          int64   `json:"ns"`
	States      int64   `json:"states"`
	SpeedupX    float64 `json:"speedup_x"`
	StatesRatio float64 `json:"states_ratio"`
}

// Result is one benchmark case in a report.
type Result struct {
	Name string `json:"name"`
	Measurement
	// LifetimeMin pins the scenario's result so a report is also a
	// correctness witness: two reports of the same case must agree.
	LifetimeMin float64 `json:"lifetime_min,omitempty"`
	// Stats are the optimal search's counters (single run); absent for
	// policy cases.
	Stats *sched.SearchStats `json:"stats,omitempty"`
	// Baseline compares against the case's reference solver: the
	// no-optimization search for optimal/* cases, the serial default search
	// for optimal-par/* cases (so SpeedupX there is the parallel speedup).
	Baseline *Baseline `json:"baseline,omitempty"`
	// Workers is the worker count of optimal-par/* cases; 0 otherwise.
	Workers int `json:"workers,omitempty"`
}

// Report is a full harness run.
type Report struct {
	Schema  int      `json:"schema"`
	Suite   string   `json:"suite"`
	Go      string   `json:"go"`
	GOOS    string   `json:"goos"`
	GOARCH  string   `json:"goarch"`
	NumCPU  int      `json:"num_cpu"`
	Results []Result `json:"results"`
}

// Options tune a harness run.
type Options struct {
	// BenchTime is the minimum measuring time per case (default 1s).
	BenchTime time.Duration
	// SkipBaselines skips the (slow) single-shot reference-search runs on
	// the optimal cases; by default they run, because the states/speedup
	// ratios against the reference search are the point of those cases.
	SkipBaselines bool
	// Match filters cases by exact name prefix; empty runs everything.
	Match string
}

// kase is one pinned benchmark case.
type kase struct {
	name string
	// workers is the worker count of parallel-search cases; 0 otherwise.
	workers int
	// run is the measured body; it returns the scenario lifetime for the
	// correctness pin.
	run func() (float64, error)
	// stats, when set, runs the default optimal search once for counters.
	stats func() (sched.SearchStats, error)
	// baseline, when set, times the case's reference solver once.
	baseline func() (time.Duration, sched.SearchStats, error)
}

// compileCellGrid discretizes a bank and compiles a paper load on an
// explicit grid.
func compileCellGrid(bats []battery.Params, loadName string, horizon, stepMin, unitAmpMin float64) ([]*dkibam.Discretization, load.Compiled, error) {
	ds := make([]*dkibam.Discretization, len(bats))
	for i, b := range bats {
		d, err := dkibam.Discretize(b, stepMin, unitAmpMin)
		if err != nil {
			return nil, load.Compiled{}, err
		}
		ds[i] = d
	}
	l, err := load.Paper(loadName, horizon)
	if err != nil {
		return nil, load.Compiled{}, err
	}
	cl, err := load.Compile(l, stepMin, unitAmpMin)
	if err != nil {
		return nil, load.Compiled{}, err
	}
	return ds, cl, nil
}

// compileCell discretizes a bank on the paper grid and compiles a paper load.
func compileCell(bats []battery.Params, loadName string, horizon float64) ([]*dkibam.Discretization, load.Compiled, error) {
	return compileCellGrid(bats, loadName, horizon, dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
}

// policyCase measures one policy lifetime on a reused system (construction
// amortized exactly like production sweeps amortize it via the shared
// compiled artifact).
func policyCase(name string, bats []battery.Params, loadName string, horizon float64, p sched.Policy) (kase, error) {
	ds, cl, err := compileCell(bats, loadName, horizon)
	if err != nil {
		return kase{}, err
	}
	sys, err := dkibam.NewSystem(ds, cl)
	if err != nil {
		return kase{}, err
	}
	start := sys.SaveState(nil)
	return kase{
		name: name,
		run: func() (float64, error) {
			sys.RestoreState(start)
			return sys.Run(sched.AdaptChooser(p.NewChooser()))
		},
	}, nil
}

// optimalCase measures the default optimal search, records its counters
// (from the last measured run — every search counts them, so no extra run
// is needed), and (once) times the reference search for the improvement
// ratios.
func optimalCase(name string, bats []battery.Params, loadName string, horizon float64) (kase, error) {
	ds, cl, err := compileCell(bats, loadName, horizon)
	if err != nil {
		return kase{}, err
	}
	var last sched.SearchStats
	return kase{
		name: name,
		run: func() (float64, error) {
			lt, _, st, err := sched.OptimalWithStats(ds, cl)
			last = st
			return lt, err
		},
		stats: func() (sched.SearchStats, error) {
			return last, nil
		},
		baseline: func() (time.Duration, sched.SearchStats, error) {
			t0 := time.Now()
			_, _, st, err := sched.OptimalWithOptions(ds, cl, sched.SearchOptions{})
			return time.Since(t0), st, err
		},
	}, nil
}

// heterogeneousCase measures the default serial search on a mixed-preset
// bank at an explicit (coarse) grid. There is no reference-search baseline:
// without canonicalization and pruning a six-battery heterogeneous bank
// never terminates in benchmark time — which is the point of the case. The
// states counter is deterministic and gated.
func heterogeneousCase(name string, bats []battery.Params, loadName string, horizon, stepMin, unitAmpMin float64) (kase, error) {
	ds, cl, err := compileCellGrid(bats, loadName, horizon, stepMin, unitAmpMin)
	if err != nil {
		return kase{}, err
	}
	var last sched.SearchStats
	return kase{
		name: name,
		run: func() (float64, error) {
			lt, _, st, err := sched.OptimalWithStats(ds, cl)
			last = st
			return lt, err
		},
		stats: func() (sched.SearchStats, error) {
			return last, nil
		},
	}, nil
}

// parallelCase measures the work-stealing search at a fixed worker count.
// Its baseline is the serial default search on the same cell, so the
// recorded SpeedupX is the parallel speedup (≈1 on a single-CPU machine —
// CheckSpeedups only enforces the floor when NumCPU covers the workers).
// Explored states are nondeterministic under stealing, so Compare exempts
// optimal-par/* from the states gate.
func parallelCase(name string, bats []battery.Params, loadName string, horizon, stepMin, unitAmpMin float64, workers int) (kase, error) {
	ds, cl, err := compileCellGrid(bats, loadName, horizon, stepMin, unitAmpMin)
	if err != nil {
		return kase{}, err
	}
	var last sched.SearchStats
	return kase{
		name:    name,
		workers: workers,
		run: func() (float64, error) {
			lt, _, st, err := sched.OptimalParallelWithStats(ds, cl, workers)
			last = st
			return lt, err
		},
		stats: func() (sched.SearchStats, error) {
			return last, nil
		},
		baseline: func() (time.Duration, sched.SearchStats, error) {
			t0 := time.Now()
			_, _, st, err := sched.OptimalWithStats(ds, cl)
			return time.Since(t0), st, err
		},
	}, nil
}

// sweepCase measures a full policy grid through the sweep runner. The spec
// and the compiled cells are built once, outside the measured body, exactly
// as the evaluation service amortizes them via its compiled cache in
// production: what the case times is the sweep pipeline on hot cells — the
// evaluation path behind a cell-store miss — which the allocs/op gate holds
// near zero per scenario.
func sweepCase(name string, bank sweep.Bank, loads []string, horizon float64, workers int) (kase, error) {
	lcs, err := sweep.PaperLoads(loads, horizon)
	if err != nil {
		return kase{}, err
	}
	sp := sweep.Spec{
		Banks:    []sweep.Bank{bank},
		Loads:    lcs,
		Policies: sweep.Policies(sched.Sequential(), sched.RoundRobin(), sched.BestAvailable()),
	}
	// Precompile every cell into a read-only map; the compile hook then
	// only reads it, so concurrent workers need no lock.
	cells := make(map[string]*core.Compiled)
	key := func(bank sweep.Bank, lc sweep.LoadCase, grid sweep.GridSpec) string {
		return bank.Name + "\x00" + lc.Name + "\x00" + grid.Name
	}
	grid := sweep.PaperGrid()
	for _, lc := range lcs {
		c, err := core.Compile(bank.Batteries, lc.Load, grid.StepMin, grid.UnitAmpMin)
		if err != nil {
			return kase{}, err
		}
		cells[key(bank, lc, grid)] = c
	}
	opts := sweep.Options{
		Workers: workers,
		Compile: func(bank sweep.Bank, lc sweep.LoadCase, grid sweep.GridSpec) (*core.Compiled, error) {
			if c, ok := cells[key(bank, lc, grid)]; ok {
				return c, nil
			}
			return core.Compile(bank.Batteries, lc.Load, grid.StepMin, grid.UnitAmpMin)
		},
	}
	return kase{
		name: name,
		run: func() (float64, error) {
			results, err := sweep.Run(sp, opts)
			if err != nil {
				return 0, err
			}
			last := 0.0
			for _, r := range results {
				if r.Err != nil {
					return 0, r.Err
				}
				last = r.Lifetime
			}
			return last, nil
		},
	}, nil
}

// jobsScenario is the pinned 200-case grid of the orchestration cases:
// 2 banks × 10 paper loads × 2 policies × 5 discretization grids. Cells are
// deliberately cheap (short horizon, deterministic policies) so the
// measured delta between the jobs path and the direct sweep is the
// orchestration overhead, not solver time.
func jobsScenario() spec.Scenario {
	loads := make([]spec.Load, len(load.PaperLoadNames))
	for i, name := range load.PaperLoadNames {
		// The paper's 200 min horizon: recovery-heavy loads let banks live
		// past 40 min, and a load that ends before the bank dies is an error.
		loads[i] = spec.Load{Paper: name, HorizonMin: 200}
	}
	// Gamma must divide the battery capacities (5.5 and 11 A·min), so the
	// grid axis sticks to divisors of 0.5.
	steps := []float64{0.01, 0.02, 0.025, 0.05, 0.1}
	grids := make([]spec.Grid, len(steps))
	for i, g := range steps {
		grids[i] = spec.Grid{StepMin: g, UnitAmpMin: g}
	}
	return spec.Scenario{
		Banks: []spec.Bank{
			{Battery: &spec.Battery{Preset: "B1"}, Count: 2},
			{Battery: &spec.Battery{Preset: "B2"}, Count: 1},
		},
		Loads:   loads,
		Solvers: []spec.Solver{{Name: "sequential"}, {Name: "bestof"}},
		Grids:   grids,
	}
}

// jobsSubmitDrainCase measures the full orchestration path: fresh service,
// store, and manager per op (cold-start included — that is the overhead
// being tracked), submit the pinned grid as one job, drain it, read the
// last result. Dedup is defeated by the fresh store, so every op evaluates
// all 200 cells.
func jobsSubmitDrainCase(name string) kase {
	sc := jobsScenario()
	return kase{
		name: name,
		run: func() (float64, error) {
			st, err := store.Open("")
			if err != nil {
				return 0, err
			}
			defer st.Close()
			// The service shares the job manager's store, as batserve wires
			// it in production; the store is fresh per op, so every cell is
			// still a miss and the full evaluation path is measured.
			svc := service.New(service.Options{MaxConcurrent: 2, Store: st})
			m := jobs.New(svc, st, jobs.Options{Workers: 1})
			defer m.Shutdown(context.Background())
			sub, err := m.Submit(jobs.Request{Scenario: sc, Workers: 2})
			if err != nil {
				return 0, err
			}
			final, err := m.Wait(context.Background(), sub.ID)
			if err != nil {
				return 0, err
			}
			if final.State != jobs.StateDone {
				return 0, fmt.Errorf("benchkit: job finished %s: %s", final.State, final.Error)
			}
			lines, err := m.Results(sub.ID)
			if err != nil {
				return 0, err
			}
			return lastLifetime(lines)
		},
	}
}

// jobsDirectSweepCase is the baseline for the submit-drain case: the same
// pinned grid through sweep.Run with a fresh compile per op, no
// orchestration. The lifetime pin ties the two cases together: both must
// report the same final-cell lifetime.
func jobsDirectSweepCase(name string) kase {
	sc := jobsScenario()
	return kase{
		name: name,
		run: func() (float64, error) {
			sp, err := sc.Compile()
			if err != nil {
				return 0, err
			}
			results, err := sweep.Run(sp, sweep.Options{Workers: 2})
			if err != nil {
				return 0, err
			}
			last := 0.0
			for _, r := range results {
				if r.Err != nil {
					return 0, r.Err
				}
				last = r.Lifetime
			}
			return last, nil
		},
	}
}

// overlapScenario is jobsScenario with one of the ten paper loads swapped
// for an inline load not in the paper set: 9 of 10 loads — and so 180 of
// the 200 cells — are shared with the pinned grid, which makes a seeded
// resubmission exactly 90% overlapping.
func overlapScenario() spec.Scenario {
	sc := jobsScenario()
	for i := range sc.Loads {
		if sc.Loads[i].Paper == "ILs alt" {
			// A 250 s on / 250 s off intermittent variant of the paper's
			// alternating load, repeated across the 200 min horizon.
			segs := make([]spec.Segment, 0, 48)
			for len(segs) < 48 {
				segs = append(segs,
					spec.Segment{DurationMin: 250.0 / 60, CurrentA: 0.5},
					spec.Segment{DurationMin: 250.0 / 60, CurrentA: 0},
				)
			}
			sc.Loads[i] = spec.Load{Name: "ILs 250/250", Segments: segs}
		}
	}
	return sc
}

// runSweepLines drives one store-backed sweep through the service line path
// and returns the last lifetime plus the cached-cell count.
func runSweepLines(svc *service.Service, sc spec.Scenario) (last float64, cached int, err error) {
	var lastLine []byte
	err = svc.SweepStreamLines(context.Background(),
		service.SweepRequest{Scenario: sc, Workers: 2},
		func(sl service.SweepLine) error {
			if sl.Cached {
				cached++
			}
			lastLine = append(lastLine[:0], sl.Line...)
			return nil
		})
	if err != nil {
		return 0, 0, err
	}
	last, err = lastLifetime([]json.RawMessage{lastLine})
	return last, cached, err
}

// sweepColdCase measures the content-addressed sweep pipeline cold: fresh
// store and service per op, so all 200 cells are digested, missed, and
// evaluated. The delta against the 90%-overlap case below is what cell
// granularity buys on resubmission.
func sweepColdCase(name string) kase {
	sc := jobsScenario()
	return kase{
		name: name,
		run: func() (float64, error) {
			st, err := store.Open("")
			if err != nil {
				return 0, err
			}
			defer st.Close()
			svc := service.New(service.Options{MaxConcurrent: 2, Store: st})
			last, cached, err := runSweepLines(svc, sc)
			if err != nil {
				return 0, err
			}
			if cached != 0 {
				return 0, fmt.Errorf("benchkit: cold sweep reported %d cached cells", cached)
			}
			return last, nil
		},
	}
}

// sweepOverlapCase measures a 90%-overlapping resubmission: per op the
// store is seeded with the 200 cells of the pinned grid (captured once,
// outside measurement), then the overlap scenario — sharing 180 of its 200
// cells — runs against it. Only the 20 novel cells evaluate; the measured
// body is digesting, the bulk probe, and the 10% miss path. The store is
// rebuilt per op so the novel cells stay novel and the work is stationary.
func sweepOverlapCase(name string) (kase, error) {
	base := jobsScenario()
	over := overlapScenario()
	// Capture the pinned grid's cell digests and lines once.
	seedStore, err := store.Open("")
	if err != nil {
		return kase{}, err
	}
	seedSvc := service.New(service.Options{MaxConcurrent: 2, Store: seedStore})
	if _, _, err := runSweepLines(seedSvc, base); err != nil {
		return kase{}, err
	}
	digests, _, err := service.CellDigests(service.SweepRequest{Scenario: base})
	if err != nil {
		return kase{}, err
	}
	lines, hits := seedStore.LookupCells(digests)
	if hits != len(digests) {
		return kase{}, fmt.Errorf("benchkit: seed sweep stored %d of %d cells", hits, len(digests))
	}
	return kase{
		name: name,
		run: func() (float64, error) {
			st, err := store.Open("")
			if err != nil {
				return 0, err
			}
			defer st.Close()
			for i, d := range digests {
				if err := st.PutCell(d, lines[i]); err != nil {
					return 0, err
				}
			}
			svc := service.New(service.Options{MaxConcurrent: 2, Store: st})
			last, cached, err := runSweepLines(svc, over)
			if err != nil {
				return 0, err
			}
			if cached != 180 {
				return 0, fmt.Errorf("benchkit: overlap sweep served %d cached cells, want 180", cached)
			}
			return last, nil
		},
	}, nil
}

// sessionStepCase measures one online scheduling step through the session
// layer: append a draw event, advance the engine through its decisions,
// fill telemetry. The shared bank artifact and the telemetry buffer live
// outside the measured op, as batserve amortizes them, so the steady-state
// step is the allocation-free path the gate holds at zero. When the bank
// dies the session is closed and reopened from the artifact's pool —
// hundreds of steps apart, so the reopen amortizes to nothing per op. The
// pinned lifetime is the (deterministic) death time of the fixed event
// pattern.
func sessionStepCase(name string, mkPolicy func() sched.Policy) (kase, error) {
	art, err := core.CompileBank(battery.Bank(battery.B1(), 2), dkibam.PaperStepMin, dkibam.PaperUnitAmpMin)
	if err != nil {
		return kase{}, err
	}
	var (
		s        *session.Session
		tel      session.Telemetry
		n        int
		lifetime float64
	)
	return kase{
		name: name,
		run: func() (float64, error) {
			if s == nil {
				var err error
				if s, err = session.New("bench", art, "bench", mkPolicy()); err != nil {
					return 0, err
				}
			}
			// The fixed pattern: two 0.25 A minutes, then an idle minute —
			// jobs exercise the decision path, idles the recovery path.
			cur := 0.25
			if n%3 == 2 {
				cur = 0
			}
			n++
			if err := s.Step(cur, 1.0, &tel); err != nil {
				return 0, err
			}
			if tel.Dead {
				lifetime = tel.LifetimeMin
				s.Close("bench")
				s, n = nil, 0
			}
			return lifetime, nil
		},
	}, nil
}

// lastLifetime extracts the final cell's lifetime from job result lines.
func lastLifetime(lines []json.RawMessage) (float64, error) {
	if len(lines) == 0 {
		return 0, fmt.Errorf("benchkit: job produced no result lines")
	}
	var res struct {
		LifetimeMin float64 `json:"lifetime_min"`
		Error       string  `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return 0, err
	}
	if res.Error != "" {
		return 0, fmt.Errorf("benchkit: final cell failed: %s", res.Error)
	}
	return res.LifetimeMin, nil
}

// CalibrationCase is a fixed CPU-bound case independent of the repo's code
// paths. Compare uses its ratio between two reports to normalize wall-clock
// comparisons across machines: a runner that is uniformly slower than the
// machine that recorded the committed baseline slows the calibration case by
// the same factor and is not read as a regression.
const CalibrationCase = "calibrate/spin"

func calibrationCase() kase {
	return kase{
		name: CalibrationCase,
		run: func() (float64, error) {
			// Deterministic xorshift mixing, ~1 ms of pure integer work.
			x := uint64(0x9E3779B97F4A7C15)
			var acc uint64
			for i := 0; i < 400_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				acc += x
			}
			if acc == 0 {
				return 0, fmt.Errorf("benchkit: calibration accumulator vanished")
			}
			return 0, nil
		},
	}
}

// suite builds the pinned case grid. The homogeneous 4xB1 cell is the
// canonicalization showcase (4! = 24x fewer states than the reference
// search); the high-c bank is the branch-and-bound showcase (the charge
// bound binds when batteries die near the total-charge horizon).
func suite() ([]kase, error) {
	b1 := battery.B1()
	hiC := battery.Params{Capacity: 1.2, C: 0.8, KPrime: 0.2, Label: "HiC"}
	cases := []kase{calibrationCase()}
	add := func(k kase, err error) error {
		if err != nil {
			return err
		}
		cases = append(cases, k)
		return nil
	}
	if err := add(policyCase("policy-lifetime/2xB1/ILs alt/bestof", battery.Bank(b1, 2), "ILs alt", 200, sched.BestAvailable())); err != nil {
		return nil, err
	}
	if err := add(policyCase("policy-lifetime/2xB1/ILl 500/bestof", battery.Bank(b1, 2), "ILl 500", 200, sched.BestAvailable())); err != nil {
		return nil, err
	}
	if err := add(sweepCase("sweep/2xB1/paper/policies", sweep.BankOf("2xB1", b1, 2), nil, 200, 1)); err != nil {
		return nil, err
	}
	if err := add(optimalCase("optimal/2xB1/ILs alt", battery.Bank(b1, 2), "ILs alt", 200)); err != nil {
		return nil, err
	}
	if err := add(optimalCase("optimal/2xB1/ILs r1", battery.Bank(b1, 2), "ILs r1", 200)); err != nil {
		return nil, err
	}
	if err := add(optimalCase("optimal/4xB1/CL 500", battery.Bank(b1, 4), "CL 500", 200)); err != nil {
		return nil, err
	}
	if err := add(optimalCase("optimal/3xHiC/ILs alt", battery.Bank(hiC, 3), "ILs alt", 200)); err != nil {
		return nil, err
	}
	// The heterogeneous showcase: a mixed 3xB1 + 3xB2 bank on the coarse
	// 0.5-grid, serial (deterministic states, gated) and through the
	// work-stealing pool. Plus the parallel twin of the 4xB1 case, whose
	// serial-baseline speedup CheckSpeedups holds above the floor on
	// multi-core runners.
	mixed := []battery.Params{b1, b1, b1, battery.B2(), battery.B2(), battery.B2()}
	if err := add(heterogeneousCase("optimal/3xB1+3xB2/ILs 500", mixed, "ILs 500", 2000, 0.5, 0.5)); err != nil {
		return nil, err
	}
	if err := add(parallelCase("optimal-par/4w/4xB1/CL 500", battery.Bank(b1, 4), "CL 500", 200,
		dkibam.PaperStepMin, dkibam.PaperUnitAmpMin, 4)); err != nil {
		return nil, err
	}
	if err := add(parallelCase("optimal-par/4w/3xB1+3xB2/ILs 500", mixed, "ILs 500", 2000, 0.5, 0.5, 4)); err != nil {
		return nil, err
	}
	// The orchestration pair: the same pinned 200-case grid through the job
	// manager (submit + drain) and through the bare sweep runner. Their
	// ns/op delta is the jobs-layer overhead; informational, not gated.
	cases = append(cases,
		jobsSubmitDrainCase("jobs/submit-drain/200-case-grid"),
		jobsDirectSweepCase("jobs/direct-sweep/200-case-grid"),
	)
	// The online serving case: per-step latency of the streaming session
	// layer in steady state, gated at zero allocations per step.
	if err := add(sessionStepCase("session/step/2xB1/sequential", sched.Sequential)); err != nil {
		return nil, err
	}
	// The incremental pair: the pinned grid cold through the cell-addressed
	// service versus a 90%-overlapping resubmission that reuses 180 of the
	// 200 cells. Their ratio is what cell-granular content addressing buys
	// on the paper's overlapping experiment grids.
	cases = append(cases, sweepColdCase("sweep/overlap/cold/200-case-grid"))
	if err := add(sweepOverlapCase("sweep/overlap/resubmit-90pct/200-case-grid")); err != nil {
		return nil, err
	}
	// The observability overhead pins: what instrumentation costs on paths
	// that run per cell or per step. Disarmed span start/end is the price
	// every un-traced request pays (gated at zero allocations); histogram
	// observe is the per-sample recording cost (also zero-alloc); the armed
	// span is the full record-into-ring lifecycle.
	cases = append(cases,
		obsDisarmedSpanCase("obs/span/disarmed-start-end"),
		obsArmedSpanCase("obs/span/armed-start-end"),
		obsHistogramCase("obs/histogram/observe"),
	)
	return cases, nil
}

// obsBatch is the inner repetition count of the obs cases: the measured
// operations are a few nanoseconds each, so each timed op runs a fixed
// batch to keep the harness loop overhead out of the signal. Reported
// ns/op is per batch, comparable across reports.
const obsBatch = 128

// obsDisarmedSpanCase pins the disarmed-tracing overhead: StartSpan on a
// context with no tracer must return the context untouched and a nil span
// whose End is a no-op — zero allocations, held by the gate.
func obsDisarmedSpanCase(name string) kase {
	ctx := context.Background()
	return kase{
		name: name,
		run: func() (float64, error) {
			for i := 0; i < obsBatch; i++ {
				sctx, sp := obs.StartSpan(ctx, "bench")
				if sctx != ctx || sp != nil {
					return 0, fmt.Errorf("benchkit: disarmed StartSpan armed itself")
				}
				sp.End()
			}
			return 0, nil
		},
	}
}

// obsArmedSpanCase pins the armed span lifecycle: id assignment, attribute
// set, and the record landing in the ring.
func obsArmedSpanCase(name string) kase {
	tr := obs.NewTracer(1024)
	ctx := obs.WithTracer(context.Background(), tr)
	return kase{
		name: name,
		run: func() (float64, error) {
			for i := 0; i < obsBatch; i++ {
				_, sp := obs.StartSpan(ctx, "bench")
				sp.SetInt("i", int64(i))
				sp.End()
			}
			if tr.Active() != 0 {
				return 0, fmt.Errorf("benchkit: armed span case leaked spans")
			}
			return 0, nil
		},
	}
}

// obsHistogramCase pins the per-sample recording cost of Histogram.Observe
// (bucket search plus two atomics) — the price every instrumented cell,
// step, commit, and request pays. Zero-alloc, held by the gate.
func obsHistogramCase(name string) kase {
	h := obs.NewHistogram(nil)
	return kase{
		name: name,
		run: func() (float64, error) {
			for i := 0; i < obsBatch; i++ {
				h.Observe(float64(i%1000) * 1e-6)
			}
			if h.Count() == 0 {
				return 0, fmt.Errorf("benchkit: histogram observed nothing")
			}
			return 0, nil
		},
	}
}

// CaseNames lists the pinned grid in order.
func CaseNames() ([]string, error) {
	cases, err := suite()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.name
	}
	return names, nil
}

// Run executes the harness and returns the report.
func Run(opts Options) (Report, error) {
	benchtime := opts.BenchTime
	if benchtime <= 0 {
		benchtime = time.Second
	}
	cases, err := suite()
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Schema: Schema,
		Suite:  "batsched-pinned-v1",
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	for _, c := range cases {
		if opts.Match != "" && !strings.HasPrefix(c.name, opts.Match) {
			continue
		}
		var lifetime float64
		m, err := measure(benchtime, func() error {
			lt, err := c.run()
			lifetime = lt
			return err
		})
		if err != nil {
			return Report{}, fmt.Errorf("benchkit: case %s: %w", c.name, err)
		}
		res := Result{Name: c.name, Measurement: m, LifetimeMin: lifetime, Workers: c.workers}
		if c.stats != nil {
			st, err := c.stats()
			if err != nil {
				return Report{}, fmt.Errorf("benchkit: case %s stats: %w", c.name, err)
			}
			res.Stats = &st
		}
		if c.baseline != nil && !opts.SkipBaselines {
			elapsed, st, err := c.baseline()
			if err != nil {
				return Report{}, fmt.Errorf("benchkit: case %s baseline: %w", c.name, err)
			}
			b := &Baseline{Ns: elapsed.Nanoseconds(), States: st.States}
			if res.NsPerOp > 0 {
				b.SpeedupX = Round2(float64(b.Ns) / float64(res.NsPerOp))
			}
			if res.Stats != nil && res.Stats.States > 0 {
				b.StatesRatio = Round2(float64(b.States) / float64(res.Stats.States))
			}
			res.Baseline = b
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// Round2 rounds to two decimals; exported so cmd/batbench can recompute
// derived ratios when it patches re-measured results.
func Round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// measure times fn like the testing package does: grow the iteration count
// until one batch runs for at least benchtime, reporting per-op wall time
// and allocation counts from runtime.MemStats deltas. Self-contained so the
// harness needs no testing flags and works from a plain binary (and in unit
// tests with a tiny benchtime).
func measure(benchtime time.Duration, fn func() error) (Measurement, error) {
	// Warmup run: surfaces errors before timing and charges one-time lazy
	// work (map growth, pools) outside the measurement.
	if err := fn(); err != nil {
		return Measurement{}, err
	}
	var ms runtime.MemStats
	n := int64(1)
	for {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		startMallocs, startBytes := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		for i := int64(0); i < n; i++ {
			if err := fn(); err != nil {
				return Measurement{}, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		if elapsed >= benchtime || n >= 1_000_000_000 {
			if elapsed <= 0 {
				elapsed = time.Nanosecond
			}
			return Measurement{
				Iterations:  n,
				NsPerOp:     elapsed.Nanoseconds() / n,
				AllocsPerOp: int64(ms.Mallocs-startMallocs) / n,
				BytesPerOp:  int64(ms.TotalAlloc-startBytes) / n,
			}, nil
		}
		// Predict the iterations that reach benchtime with 20% headroom,
		// growing at least 2x and at most 100x per round (the testing
		// package's strategy).
		next := n * 100
		if elapsed > 0 {
			next = int64(1.2 * float64(benchtime.Nanoseconds()) / (float64(elapsed.Nanoseconds()) / float64(n)))
		}
		if next < 2*n {
			next = 2 * n
		}
		if next > 100*n {
			next = 100 * n
		}
		n = next
	}
}

// Regression is one case that slowed beyond the allowed ratio. Kind is
// "ns/op" (wall clock — noisy across machines, retried by the gate),
// "states" (explored search states — deterministic for fixed code and grid,
// the machine-independent signal), or "allocs/op" (allocation count —
// near-deterministic, the zero-allocation pipeline's guard).
type Regression struct {
	Name    string
	Kind    string
	Base    int64
	Current int64
	Ratio   float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %d %s vs baseline %d (%.2fx > allowed)", r.Name, r.Current, r.Kind, r.Base, r.Ratio)
}

// GatedPrefixes are the case families the CI regression gate inspects; the
// other cases are informational. optimal-par/* cases are gated on ns/op and
// allocs/op but not on explored states (nondeterministic under stealing);
// their parallel speedup is enforced separately by CheckSpeedups.
var GatedPrefixes = []string{"policy-lifetime/", "optimal/", "optimal-par/", "sweep/", "session/", "obs/"}

// allocSlack is how many allocs/op a zero-alloc baseline case may drift
// before the gate fires: allocation counts are near-deterministic, but a
// stray background GC assist or pool refill can charge a handful of
// allocations to the measured loop.
const allocSlack = 16

// Compare flags cases in current that regressed more than maxRatio against
// the same-named case in base, restricted to GatedPrefixes: wall-clock
// ns/op on every gated case, plus explored states on the optimal cases
// (deterministic, so immune to machine differences). Wall-clock ratios are
// divided by the CalibrationCase slowdown when both reports carry it, so a
// uniformly slower machine (CI runner vs the baseline recorder) is excused;
// a faster machine never tightens the gate (the calibration workload is not
// the measured workload). Cases missing from either report are ignored (the
// grid may grow over time).
func Compare(base, current Report, maxRatio float64) []Regression {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	scale := 1.0
	if b, ok := baseBy[CalibrationCase]; ok && b.NsPerOp > 0 {
		for _, c := range current.Results {
			if c.Name == CalibrationCase && c.NsPerOp > 0 {
				if s := float64(c.NsPerOp) / float64(b.NsPerOp); s > 1 {
					scale = s
				}
				break
			}
		}
	}
	var regs []Regression
	for _, r := range current.Results {
		gated := false
		for _, p := range GatedPrefixes {
			if strings.HasPrefix(r.Name, p) {
				gated = true
				break
			}
		}
		if !gated {
			continue
		}
		b, ok := baseBy[r.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 {
			if ratio := float64(r.NsPerOp) / float64(b.NsPerOp) / scale; ratio > maxRatio {
				regs = append(regs, Regression{Name: r.Name, Kind: "ns/op", Base: b.NsPerOp, Current: r.NsPerOp, Ratio: ratio})
			}
		}
		// The states gate only applies to deterministic (serial) searches:
		// under work stealing the explored-state count depends on which
		// worker publishes the incumbent first.
		if b.Stats != nil && r.Stats != nil && b.Stats.States > 0 && !strings.HasPrefix(r.Name, "optimal-par/") {
			if ratio := float64(r.Stats.States) / float64(b.Stats.States); ratio > maxRatio {
				regs = append(regs, Regression{Name: r.Name, Kind: "states", Base: b.Stats.States, Current: r.Stats.States, Ratio: ratio})
			}
		}
		// Allocation gate: machine-independent like the states gate. A
		// baseline at (or near) zero cannot express a ratio, so it gets an
		// absolute slack instead — the zero-allocation cases must stay
		// zero-allocation.
		switch {
		case b.AllocsPerOp > allocSlack:
			if ratio := float64(r.AllocsPerOp) / float64(b.AllocsPerOp); ratio > maxRatio {
				regs = append(regs, Regression{Name: r.Name, Kind: "allocs/op", Base: b.AllocsPerOp, Current: r.AllocsPerOp, Ratio: ratio})
			}
		case r.AllocsPerOp > b.AllocsPerOp+allocSlack:
			regs = append(regs, Regression{Name: r.Name, Kind: "allocs/op", Base: b.AllocsPerOp, Current: r.AllocsPerOp,
				Ratio: float64(r.AllocsPerOp) / float64(b.AllocsPerOp+1)})
		}
	}
	return regs
}

// MinParallelSpeedup is the serial-to-parallel speedup floor the
// optimal-par/* cases must clear at their pinned worker count. The cases run
// four workers; near-linear scaling lands above 3x, and the floor at 2x
// leaves room for shared-memo contention and runner noise while still
// catching a work-stealing pool that degenerated to serial-with-overhead.
const MinParallelSpeedup = 2.0

// CheckSpeedups flags optimal-par cases whose measured speedup against
// their serial baseline fell below floor. A machine with fewer CPUs than a
// case has workers cannot express parallel speedup at all, so such cases
// are skipped — the floor binds on multi-core CI runners, not on machines
// pinned to one core.
func CheckSpeedups(rep Report, floor float64) []string {
	var bad []string
	for _, r := range rep.Results {
		if !strings.HasPrefix(r.Name, "optimal-par/") || r.Baseline == nil || r.Workers <= 1 {
			continue
		}
		if rep.NumCPU < r.Workers {
			continue
		}
		if r.Baseline.SpeedupX < floor {
			bad = append(bad, fmt.Sprintf("%s: parallel speedup %.2fx at %d workers, floor %.2fx",
				r.Name, r.Baseline.SpeedupX, r.Workers, floor))
		}
	}
	return bad
}
