// Package core ties the substrates of the battery-scheduling reproduction
// together into one problem-solving API: a Problem couples a battery bank
// with a load on a discretization grid; its methods compute lifetimes under
// the analytic KiBaM, under the deterministic scheduling schemes, and under
// the optimal schedule — via both the direct decision search and the
// priced-timed-automata model checker, which the tests hold to agree.
//
// A Problem is a cheap declarative description. Compile turns it into a
// Compiled artifact — the per-battery discretization tables plus the
// three-array load encoding — which is immutable and safe to share across
// goroutines; every simulation call creates its own per-run state (a
// dkibam.System) on top of it. Problem's own lifetime methods delegate to a
// lazily built, sync.Once-guarded Compiled, so a Problem is concurrency-safe
// too. The parallel sweep runner (internal/sweep) leans on exactly this
// split: one Compiled per scenario cell, many concurrent runs.
//
// The root package batsched re-exports this API; external users should
// import that.
package core

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/kibam"
	"batsched/internal/load"
	"batsched/internal/mc"
	"batsched/internal/sched"
	"batsched/internal/takibam"
)

// Problem is a battery bank plus a load on a discretization grid.
type Problem struct {
	batteries []battery.Params
	ld        load.Load

	stepMin    float64
	unitAmpMin float64

	// The compiled artifact is built at most once; the sync.Once makes the
	// lazy build safe for concurrent callers.
	once     sync.Once
	compiled *Compiled
	compErr  error
}

// Option customises a Problem.
type Option func(*Problem)

// WithGrid overrides the discretization grid (defaults to the paper's
// T = 0.01 min, Gamma = 0.01 A·min).
func WithGrid(stepMin, unitAmpMin float64) Option {
	return func(p *Problem) {
		p.stepMin = stepMin
		p.unitAmpMin = unitAmpMin
	}
}

// Problem construction errors.
var (
	ErrNoBatteries   = errors.New("core: need at least one battery")
	ErrSingleBattery = errors.New("core: operation needs a single-battery problem")
)

// NewProblem validates the inputs and builds a problem.
func NewProblem(batteries []battery.Params, ld load.Load, opts ...Option) (*Problem, error) {
	if len(batteries) == 0 {
		return nil, ErrNoBatteries
	}
	for i, b := range batteries {
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("battery %d: %w", i, err)
		}
	}
	if ld.Len() == 0 {
		return nil, load.ErrEmptyLoad
	}
	p := &Problem{
		batteries:  append([]battery.Params(nil), batteries...),
		ld:         ld,
		stepMin:    dkibam.PaperStepMin,
		unitAmpMin: dkibam.PaperUnitAmpMin,
	}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// Batteries returns a copy of the battery parameters.
func (p *Problem) Batteries() []battery.Params {
	return append([]battery.Params(nil), p.batteries...)
}

// Load returns the problem's load.
func (p *Problem) Load() load.Load { return p.ld }

// Grid returns the discretization grid (T, Gamma).
func (p *Problem) Grid() (stepMin, unitAmpMin float64) { return p.stepMin, p.unitAmpMin }

// Compile builds (once) and returns the problem's immutable compiled
// artifact. The artifact is safe for concurrent use.
func (p *Problem) Compile() (*Compiled, error) {
	p.once.Do(func() {
		p.compiled, p.compErr = Compile(p.batteries, p.ld, p.stepMin, p.unitAmpMin)
	})
	return p.compiled, p.compErr
}

// Compiled is the immutable compiled form of a problem: the per-battery
// integer discretization tables (shared process-wide, see dkibam.Discretize)
// and the three-array load encoding, shared by every run. A Compiled is safe
// for concurrent use — all per-run state lives in the dkibam.System each
// method creates.
type Compiled struct {
	batteries []battery.Params
	ld        load.Load
	discs     []*dkibam.Discretization
	cl        load.Compiled

	// sysPool recycles per-run Systems across simulations on this artifact;
	// a pooled system is Reset on acquire, so policy evaluations on a hot
	// cell allocate nothing. Valid only because every System built here
	// shares the same immutable discs/cl.
	sysPool sync.Pool
}

// Compile discretizes a bank and a load onto a grid, producing the shared
// immutable artifact directly (without going through a Problem).
func Compile(batteries []battery.Params, ld load.Load, stepMin, unitAmpMin float64) (*Compiled, error) {
	ds, err := discretizeBank(batteries, stepMin, unitAmpMin)
	if err != nil {
		return nil, err
	}
	cl, err := load.Compile(ld, stepMin, unitAmpMin)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		batteries: append([]battery.Params(nil), batteries...),
		ld:        ld,
		discs:     ds,
		cl:        cl,
	}, nil
}

// CompileBank discretizes a bank onto a grid with an empty load: the
// artifact behind streaming sessions, whose load arrives event by event
// (dkibam.System.AppendEpoch) instead of being compiled up front. The
// system pool works exactly as on a full artifact — Reset truncates a
// pooled system's appended stream away — but the offline lifetime methods
// are useless here (no load to run). One bank artifact is safe to share
// across any number of concurrent sessions.
func CompileBank(batteries []battery.Params, stepMin, unitAmpMin float64) (*Compiled, error) {
	ds, err := discretizeBank(batteries, stepMin, unitAmpMin)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		batteries: append([]battery.Params(nil), batteries...),
		discs:     ds,
		cl:        load.Compiled{StepMin: stepMin, UnitAmpMin: unitAmpMin},
	}, nil
}

// discretizeBank looks up the shared table of each battery of a bank;
// identical batteries get the same table.
func discretizeBank(batteries []battery.Params, stepMin, unitAmpMin float64) ([]*dkibam.Discretization, error) {
	if len(batteries) == 0 {
		return nil, ErrNoBatteries
	}
	ds := make([]*dkibam.Discretization, len(batteries))
	for i, b := range batteries {
		d, err := dkibam.Discretize(b, stepMin, unitAmpMin)
		if err != nil {
			return nil, fmt.Errorf("battery %d: %w", i, err)
		}
		ds[i] = d
	}
	return ds, nil
}

// Batteries returns a copy of the battery parameters.
func (c *Compiled) Batteries() []battery.Params {
	return append([]battery.Params(nil), c.batteries...)
}

// Load returns the compiled problem's load.
func (c *Compiled) Load() load.Load { return c.ld }

// Grid returns the discretization grid (T, Gamma).
func (c *Compiled) Grid() (stepMin, unitAmpMin float64) { return c.cl.StepMin, c.cl.UnitAmpMin }

// Discretizations returns the shared per-battery integer tables. The slice
// is freshly allocated; the tables themselves are immutable and shared.
func (c *Compiled) Discretizations() []*dkibam.Discretization {
	return append([]*dkibam.Discretization(nil), c.discs...)
}

// CompiledLoad returns the three-array load encoding.
func (c *Compiled) CompiledLoad() load.Compiled { return c.cl }

// NewSystem creates fresh per-run simulation state (fully charged batteries
// at time zero) on the shared artifact.
func (c *Compiled) NewSystem() (*dkibam.System, error) {
	return dkibam.NewSystem(c.discs, c.cl)
}

// AcquireSystem returns a per-run system in the construction state (fully
// charged, time zero), recycling an earlier run's system when one is pooled.
// Pair it with ReleaseSystem once the run is done; a released system must
// not be used again.
func (c *Compiled) AcquireSystem() (*dkibam.System, error) {
	if sys, ok := c.sysPool.Get().(*dkibam.System); ok {
		sys.Reset()
		return sys, nil
	}
	return c.NewSystem()
}

// ReleaseSystem returns a system acquired from AcquireSystem to the pool.
func (c *Compiled) ReleaseSystem(sys *dkibam.System) {
	if sys == nil {
		return
	}
	sys.OnStep = nil
	c.sysPool.Put(sys)
}

// PolicyLifetimeCount simulates a scheduling policy on a pooled per-run
// system and returns the lifetime plus the number of scheduling decisions —
// what the sweep runner needs — without materializing the Schedule that
// PolicyRun records.
func (c *Compiled) PolicyLifetimeCount(policy sched.Policy) (float64, int, error) {
	sys, err := c.AcquireSystem()
	if err != nil {
		return 0, 0, err
	}
	defer c.ReleaseSystem(sys)
	lifetime, err := sys.Run(sched.AdaptChooser(policy.NewChooser()))
	if err != nil {
		return 0, 0, err
	}
	return lifetime, sys.Decisions(), nil
}

// AnalyticLifetime computes the battery lifetime under the continuous KiBaM
// (closed form per constant-current segment). It requires a single-battery
// problem; multi-battery lifetimes depend on a scheduling policy.
func (c *Compiled) AnalyticLifetime() (float64, error) {
	if len(c.batteries) != 1 {
		return 0, fmt.Errorf("%w (have %d)", ErrSingleBattery, len(c.batteries))
	}
	m, err := kibam.New(c.batteries[0])
	if err != nil {
		return 0, err
	}
	return m.Lifetime(c.ld)
}

// DiscreteLifetime computes the single-battery lifetime under the dKiBaM
// (the TA-KiBaM column of Tables 3 and 4).
func (c *Compiled) DiscreteLifetime() (float64, error) {
	if len(c.batteries) != 1 {
		return 0, fmt.Errorf("%w (have %d)", ErrSingleBattery, len(c.batteries))
	}
	sys, err := c.NewSystem()
	if err != nil {
		return 0, err
	}
	return sys.Run(sched.FixedChooser(0))
}

// PolicyLifetime simulates a scheduling policy on the discretized system
// and returns the system lifetime in minutes.
func (c *Compiled) PolicyLifetime(policy sched.Policy) (float64, error) {
	return sched.Lifetime(c.discs, c.cl, policy)
}

// PolicyRun simulates a scheduling policy and also returns its schedule.
func (c *Compiled) PolicyRun(policy sched.Policy) (float64, sched.Schedule, error) {
	return sched.Run(c.discs, c.cl, policy)
}

// OptimalLifetime computes the maximum achievable lifetime and an optimal
// schedule by direct iterative search over the scheduling decisions.
func (c *Compiled) OptimalLifetime() (float64, sched.Schedule, error) {
	return sched.Optimal(c.discs, c.cl)
}

// OptimalLifetimeWithStats is OptimalLifetime, additionally reporting how
// much work the search performed (states expanded, memo hits, pruned
// branches); the sweep runner and the evaluation service surface these.
func (c *Compiled) OptimalLifetimeWithStats() (float64, sched.Schedule, sched.SearchStats, error) {
	return sched.OptimalWithStats(c.discs, c.cl)
}

// OptimalLifetimeParallel is OptimalLifetime with the branch exploration
// spread over a worker pool (workers <= 0 means runtime.NumCPU()).
func (c *Compiled) OptimalLifetimeParallel(workers int) (float64, sched.Schedule, error) {
	return sched.OptimalParallel(c.discs, c.cl, workers)
}

// OptimalLifetimeParallelWithStats is OptimalLifetimeParallel with search
// statistics (summed over the frontier expansion and all workers).
func (c *Compiled) OptimalLifetimeParallelWithStats(workers int) (float64, sched.Schedule, sched.SearchStats, error) {
	return sched.OptimalParallelWithStats(c.discs, c.cl, workers)
}

// BuildTA constructs the TA-KiBaM priced-timed-automata network of the
// problem.
func (c *Compiled) BuildTA() (*takibam.Model, error) {
	return takibam.Build(c.discs, c.cl)
}

// ExportUppaal writes the problem's TA-KiBaM network as an Uppaal 4.x XML
// model for cross-checking against the paper's original toolchain.
func (c *Compiled) ExportUppaal(w io.Writer) error {
	return takibam.ExportUppaal(w, c.discs, c.cl)
}

// OptimalLifetimeTA computes the optimal schedule with the paper's method:
// minimum-cost reachability on the TA-KiBaM network.
func (c *Compiled) OptimalLifetimeTA(opts mc.Options) (*takibam.Solution, error) {
	m, err := c.BuildTA()
	if err != nil {
		return nil, err
	}
	return m.Solve(opts)
}

// AnalyticLifetime computes the battery lifetime under the continuous KiBaM;
// see Compiled.AnalyticLifetime.
func (p *Problem) AnalyticLifetime() (float64, error) {
	if len(p.batteries) != 1 {
		return 0, fmt.Errorf("%w (have %d)", ErrSingleBattery, len(p.batteries))
	}
	m, err := kibam.New(p.batteries[0])
	if err != nil {
		return 0, err
	}
	return m.Lifetime(p.ld)
}

// DiscreteLifetime computes the single-battery lifetime under the dKiBaM.
func (p *Problem) DiscreteLifetime() (float64, error) {
	c, err := p.Compile()
	if err != nil {
		return 0, err
	}
	return c.DiscreteLifetime()
}

// PolicyLifetime simulates a scheduling policy on the discretized system
// and returns the system lifetime in minutes.
func (p *Problem) PolicyLifetime(policy sched.Policy) (float64, error) {
	c, err := p.Compile()
	if err != nil {
		return 0, err
	}
	return c.PolicyLifetime(policy)
}

// PolicyRun simulates a scheduling policy and also returns its schedule.
func (p *Problem) PolicyRun(policy sched.Policy) (float64, sched.Schedule, error) {
	c, err := p.Compile()
	if err != nil {
		return 0, nil, err
	}
	return c.PolicyRun(policy)
}

// OptimalLifetime computes the maximum achievable lifetime and an optimal
// schedule by direct search over the scheduling decisions.
func (p *Problem) OptimalLifetime() (float64, sched.Schedule, error) {
	c, err := p.Compile()
	if err != nil {
		return 0, nil, err
	}
	return c.OptimalLifetime()
}

// OptimalLifetimeParallel is OptimalLifetime with the branch exploration
// spread over a worker pool (workers <= 0 means runtime.NumCPU()).
func (p *Problem) OptimalLifetimeParallel(workers int) (float64, sched.Schedule, error) {
	c, err := p.Compile()
	if err != nil {
		return 0, nil, err
	}
	return c.OptimalLifetimeParallel(workers)
}

// BuildTA constructs the TA-KiBaM priced-timed-automata network of the
// problem.
func (p *Problem) BuildTA() (*takibam.Model, error) {
	c, err := p.Compile()
	if err != nil {
		return nil, err
	}
	return c.BuildTA()
}

// OptimalLifetimeTA computes the optimal schedule with the paper's method:
// minimum-cost reachability on the TA-KiBaM network.
func (p *Problem) OptimalLifetimeTA(opts mc.Options) (*takibam.Solution, error) {
	c, err := p.Compile()
	if err != nil {
		return nil, err
	}
	return c.OptimalLifetimeTA(opts)
}

// TracePoint samples the bank state at one instant (for the Figure 6
// charge curves).
type TracePoint struct {
	// Minutes is the sample time.
	Minutes float64
	// Total and Available hold gamma and y1 per battery, in A·min.
	Total     []float64
	Available []float64
	// Active is the discharging battery index, or -1.
	Active int
}

// TraceSchedule re-simulates a recorded schedule and samples the bank state
// every sampleEvery steps (1 = every step).
func (c *Compiled) TraceSchedule(schedule sched.Schedule, sampleEvery int) ([]TracePoint, error) {
	return c.trace(sched.Replay("replay", schedule), sampleEvery)
}

// TracePolicy simulates a policy and samples the bank state every
// sampleEvery steps.
func (c *Compiled) TracePolicy(policy sched.Policy, sampleEvery int) ([]TracePoint, error) {
	return c.trace(policy, sampleEvery)
}

// TraceSchedule re-simulates a recorded schedule and samples the bank state
// every sampleEvery steps (1 = every step).
func (p *Problem) TraceSchedule(schedule sched.Schedule, sampleEvery int) ([]TracePoint, error) {
	c, err := p.Compile()
	if err != nil {
		return nil, err
	}
	return c.TraceSchedule(schedule, sampleEvery)
}

// TracePolicy simulates a policy and samples the bank state every
// sampleEvery steps.
func (p *Problem) TracePolicy(policy sched.Policy, sampleEvery int) ([]TracePoint, error) {
	c, err := p.Compile()
	if err != nil {
		return nil, err
	}
	return c.TracePolicy(policy, sampleEvery)
}

func (c *Compiled) trace(policy sched.Policy, sampleEvery int) ([]TracePoint, error) {
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	sys, err := c.NewSystem()
	if err != nil {
		return nil, err
	}
	sample := func(s *dkibam.System) TracePoint {
		pt := TracePoint{
			Minutes:   s.Minutes(),
			Total:     make([]float64, s.Batteries()),
			Available: make([]float64, s.Batteries()),
			Active:    s.Active(),
		}
		for i := 0; i < s.Batteries(); i++ {
			pt.Total[i] = s.Disc(i).TotalAmpMin(s.Cell(i))
			pt.Available[i] = s.Disc(i).AvailableAmpMin(s.Cell(i))
		}
		return pt
	}
	points := []TracePoint{sample(sys)}
	sys.OnStep = func(s *dkibam.System) {
		if s.Step()%sampleEvery == 0 || s.Dead() {
			points = append(points, sample(s))
		}
	}
	if _, err := sys.Run(sched.AdaptChooser(policy.NewChooser())); err != nil {
		return nil, err
	}
	return points, nil
}
