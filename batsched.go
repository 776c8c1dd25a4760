// Package batsched is a Go reproduction of "Maximizing System Lifetime by
// Battery Scheduling" (Jongerden, Haverkort, Bohnenkamp, Katoen; DSN 2009).
//
// Mobile devices powered by several batteries can extend the time until all
// batteries are empty — the system lifetime — by scheduling which battery
// serves each job. Batteries are kinetic (KiBaM): a high discharge current
// extracts less total charge (rate-capacity effect) and idle periods
// recover available charge from the bound-charge well (recovery effect), so
// the schedule matters.
//
// The package offers four ways to evaluate a battery bank under a
// piecewise-constant load:
//
//   - the continuous KiBaM with exact closed-form stepping (AnalyticLifetime),
//   - the discretized KiBaM of the paper's Section 2.3 (DiscreteLifetime),
//   - deterministic scheduling schemes — Sequential, RoundRobin,
//     BestAvailable — simulated on the discretized model (PolicyLifetime),
//   - the optimal schedule, computed either by direct branch-and-bound over
//     the scheduling decisions (OptimalLifetime) or, as in the paper, by
//     minimum-cost reachability on a network of priced timed automata
//     (OptimalLifetimeTA).
//
// # Quick start
//
//	l, _ := batsched.PaperLoad("ILs alt", 120)
//	p, _ := batsched.NewProblem([]batsched.BatteryParams{batsched.B1(), batsched.B1()}, l)
//	best, _ := p.PolicyLifetime(batsched.BestAvailable())
//	opt, _, _ := p.OptimalLifetime()
//	fmt.Printf("best-of-two %.2f min, optimal %.2f min\n", best, opt)
//
// See the examples directory for complete programs and EXPERIMENTS.md for
// the reproduction of every table and figure of the paper.
package batsched

import (
	"context"
	"io"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/dkibam"
	"batsched/internal/jobs"
	"batsched/internal/load"
	"batsched/internal/mc"
	"batsched/internal/mcarlo"
	"batsched/internal/obs"
	"batsched/internal/sched"
	"batsched/internal/service"
	"batsched/internal/session"
	"batsched/internal/spec"
	"batsched/internal/store"
	"batsched/internal/sweep"
	"batsched/internal/takibam"
)

// PaperStepMin and PaperUnitAmpMin are the paper's discretization grid:
// time step T in minutes and charge unit Gamma in A·min.
const (
	PaperStepMin    = dkibam.PaperStepMin
	PaperUnitAmpMin = dkibam.PaperUnitAmpMin
)

// DefaultHorizonMin is the default load horizon in minutes, matching the
// paper experiments.
const DefaultHorizonMin = spec.DefaultHorizonMin

// BatteryParams holds the KiBaM parameters of one battery: total capacity C
// (A·min), available-charge fraction c, and transformed rate constant k'
// (1/min).
type BatteryParams = battery.Params

// B1 returns the paper's 5.5 A·min battery (Itsy Li-ion parameters).
func B1() BatteryParams { return battery.B1() }

// B2 returns the paper's 11 A·min battery.
func B2() BatteryParams { return battery.B2() }

// Bank returns n identical copies of a battery.
func Bank(p BatteryParams, n int) []BatteryParams { return battery.Bank(p, n) }

// Load is a piecewise-constant discharge load: a sequence of epochs, each a
// job (positive current) or an idle period.
type Load = load.Load

// Segment is one epoch of a load: Duration minutes at Current amperes.
type Segment = load.Segment

// NewLoad builds a load from segments.
func NewLoad(name string, segments ...Segment) (Load, error) {
	return load.New(name, segments...)
}

// PaperLoad builds one of the ten Section 5 test loads by its table name
// ("CL 250", "ILs alt", "ILl 500", ...), covering at least horizon minutes.
func PaperLoad(name string, horizon float64) (Load, error) {
	return load.Paper(name, horizon)
}

// PaperLoadNames lists the ten Section 5 test loads in table order.
func PaperLoadNames() []string {
	return append([]string(nil), load.PaperLoadNames...)
}

// ParseLoad reads a load from the text format documented at
// internal/load.Parse: one "duration current" pair per line, with comments
// and an Nx(...) repeat form.
func ParseLoad(name string, r io.Reader) (Load, error) {
	return load.Parse(name, r)
}

// ParseLoadFile reads a load file; the load is named after the file.
func ParseLoadFile(path string) (Load, error) {
	return load.ParseFile(path)
}

// WriteLoad renders a load in the ParseLoad text format.
func WriteLoad(w io.Writer, l Load) error {
	return load.Write(w, l)
}

// Policy is a deterministic battery-scheduling scheme.
type Policy = sched.Policy

// Sequential drains the batteries one after the other (the worst schedule).
func Sequential() Policy { return sched.Sequential() }

// RoundRobin assigns job k to battery k mod B in a fixed rotation.
func RoundRobin() Policy { return sched.RoundRobin() }

// BestAvailable picks the battery with the most available charge at each
// job start (the paper's best-of-two, for any number of batteries).
func BestAvailable() Policy { return sched.BestAvailable() }

// Lookahead returns the online model-predictive policy: at each scheduling
// point it rolls every candidate battery forward horizonMin minutes on the
// discretized model and commits to the best outcome. It recovers most of
// the gap between best-of-two and the clairvoyant optimum; see
// EXPERIMENTS.md.
func Lookahead(horizonMin float64) Policy { return sched.Lookahead(horizonMin) }

// Schedule is a sequence of scheduling decisions; Choice is one decision.
type (
	Schedule = sched.Schedule
	Choice   = sched.Choice
)

// Problem couples a battery bank with a load on a discretization grid and
// exposes lifetime computations; see package core for the full API.
type Problem = core.Problem

// Option customises a Problem.
type Option = core.Option

// WithGrid overrides the discretization grid (default: the paper's
// T = 0.01 min, Gamma = 0.01 A·min).
func WithGrid(stepMin, unitAmpMin float64) Option { return core.WithGrid(stepMin, unitAmpMin) }

// NewProblem validates the inputs and builds a problem.
func NewProblem(batteries []BatteryParams, ld Load, opts ...Option) (*Problem, error) {
	return core.NewProblem(batteries, ld, opts...)
}

// Compiled is the immutable, concurrency-safe compiled form of a Problem:
// shared discretization tables plus the compiled load. Build one with
// Problem.Compile and run any number of concurrent simulations on it.
type Compiled = core.Compiled

// TracePoint samples the bank state at one instant (Figure 6 curves).
type TracePoint = core.TracePoint

// Scenario sweeps: a SweepSpec declares a grid of banks × loads × policies
// (× discretization grids) and RunSweep executes every combination over a
// bounded worker pool with deterministic result ordering.
type (
	// SweepSpec is a declarative scenario grid.
	SweepSpec = sweep.Spec
	// SweepBank is one battery-bank configuration of a sweep.
	SweepBank = sweep.Bank
	// SweepLoad is one load of a sweep.
	SweepLoad = sweep.LoadCase
	// SweepPolicy is one scheduling scheme of a sweep.
	SweepPolicy = sweep.PolicyCase
	// SweepGrid is one discretization grid of a sweep.
	SweepGrid = sweep.GridSpec
	// SweepResult is the outcome of one sweep scenario.
	SweepResult = sweep.Result
	// SweepOptions tune a sweep run (worker pool size).
	SweepOptions = sweep.Options
)

// RunSweep expands the spec and runs every scenario over a worker pool
// bounded by opts.Workers (0 = number of CPUs), returning one result per
// scenario in deterministic nested order.
func RunSweep(spec SweepSpec, opts SweepOptions) ([]SweepResult, error) {
	return sweep.Run(spec, opts)
}

// SweepBankOf builds a sweep bank of n identical batteries.
func SweepBankOf(name string, p BatteryParams, n int) SweepBank { return sweep.BankOf(name, p, n) }

// SweepPaperLoads builds the named Section 5 test loads (nil = all ten) as
// sweep cases, each covering at least horizon minutes.
func SweepPaperLoads(names []string, horizon float64) ([]SweepLoad, error) {
	return sweep.PaperLoads(names, horizon)
}

// SweepPolicies wraps deterministic policies as sweep cases.
func SweepPolicies(ps ...Policy) []SweepPolicy { return sweep.Policies(ps...) }

// SweepOptimal returns the optimal-search sweep case.
func SweepOptimal() SweepPolicy { return sweep.OptimalCase() }

// SearchOptions bound the state space of the timed-automata search.
type SearchOptions = mc.Options

// OptimalSearchStats counts the work of the direct optimal search (states
// expanded, memo hits, pruned branches); sweeps and the evaluation service
// attach it to optimal-solver results.
type OptimalSearchStats = sched.SearchStats

// TASolution is the outcome of the priced-timed-automata optimal search.
type TASolution = takibam.Solution

// ContinuousResult is the outcome of simulating a policy on the continuous
// (non-discretized) KiBaM.
type ContinuousResult = sched.ContinuousResult

// ContinuousRun simulates a scheduling policy on the continuous KiBaM.
func ContinuousRun(batteries []BatteryParams, l Load, p Policy) (ContinuousResult, error) {
	return sched.ContinuousRun(batteries, l, p)
}

// Serializable scenario layer: a Scenario is a JSON-round-trippable grid of
// banks × loads × solvers (× grids). Solvers are addressed by registry name
// with optional parameters; Scenario.Compile resolves everything into a
// runnable SweepSpec. See internal/spec for the wire format.
type (
	// Scenario is a serializable scenario grid.
	Scenario = spec.Scenario
	// RunSpec is a serializable single-cell request.
	RunSpec = spec.Run
	// BankSpec describes one battery bank.
	BankSpec = spec.Bank
	// BatterySpec describes one battery (preset or custom KiBaM params).
	BatterySpec = spec.Battery
	// LoadSpec describes one load (paper name, inline segments, or text).
	LoadSpec = spec.Load
	// SegmentSpec is one serializable load epoch.
	SegmentSpec = spec.Segment
	// GridSpec describes one discretization grid.
	GridSpec = spec.Grid
	// SolverSpec addresses a solver by registry name plus parameters.
	SolverSpec = spec.Solver
	// SolverBuilder is one registry entry (name, aliases, doc, builder).
	SolverBuilder = spec.Builder
	// LookaheadParams parameterise the "lookahead" solver.
	LookaheadParams = spec.LookaheadParams
	// OptimalParams parameterise the "optimal" solver.
	OptimalParams = spec.OptimalParams
	// OptimalTAParams parameterise the "optimal-ta" solver.
	OptimalTAParams = spec.OptimalTAParams
	// MonteCarloParams parameterise the "montecarlo" solver.
	MonteCarloParams = spec.MonteCarloParams
)

// ErrUnknownSolver is returned when a solver name is not in the registry.
var ErrUnknownSolver = spec.ErrUnknownSolver

// ParseScenario decodes scenario JSON, rejecting unknown fields.
func ParseScenario(data []byte) (Scenario, error) { return spec.ParseScenario(data) }

// ParseRun decodes single-cell run JSON, rejecting unknown fields.
func ParseRun(data []byte) (RunSpec, error) { return spec.ParseRun(data) }

// NamedSolver builds a SolverSpec from a registry name and a params struct.
func NamedSolver(name string, params any) (SolverSpec, error) {
	return spec.NamedSolver(name, params)
}

// SolverNames lists the canonical registered solver names, sorted.
func SolverNames() []string { return spec.SolverNames() }

// Solvers returns the registered solver builders in registration order.
func Solvers() []SolverBuilder { return spec.Builders() }

// RegisterSolver adds a scheme to the registry, making it addressable from
// scenario JSON, sweeps, and the HTTP service without touching callers.
func RegisterSolver(b SolverBuilder) { spec.Register(b) }

// BuildSolver resolves a solver reference into a runnable sweep case.
func BuildSolver(s SolverSpec) (SweepPolicy, error) { return spec.BuildSolver(s) }

// CLIBattery resolves the tools' -battery flag grammar: a preset name
// ("B1", "b2") with an optional capacity override in A·min.
func CLIBattery(name string, capacity float64) (BatteryParams, error) {
	return spec.CLIBattery(name, capacity)
}

// CLIBank parses the sweep bank grammar "NxB1" into a bank description.
func CLIBank(s string) (BankSpec, error) { return spec.CLIBank(s) }

// CLISolver parses the -policy flag grammar (registry names and aliases,
// plus "lookahead:MIN") into a solver reference.
func CLISolver(s string) (SolverSpec, error) { return spec.CLISolver(s) }

// CLILoad resolves the -load flag grammar: a paper load name, or the path
// of a load file when such a file exists (0 horizon = the default 200 min).
func CLILoad(name string, horizon float64) (Load, error) { return spec.CLILoad(name, horizon) }

// Evaluation service: a long-lived Service answers Evaluate/Sweep requests
// with bounded concurrency, serves cells from an optional result store, and
// shares session bank artifacts (CompileBank) keyed by the resolved (bank,
// grid) content. cmd/batserve exposes it over HTTP.
type (
	// EvalService is the long-lived evaluation service.
	EvalService = service.Service
	// EvalOptions tune an EvalService (concurrency bound, result store,
	// cell latency histogram).
	EvalOptions = service.Options
	// EvalStats reports the service's counters: cells evaluated and served
	// from the store, session bank artifacts built and shared, and search
	// effort.
	EvalStats = service.Stats
	// EvalResult is one evaluated scenario cell in wire form.
	EvalResult = service.Result
	// RunRequest asks the service for a single scenario cell.
	RunRequest = service.RunRequest
	// SweepRequest asks the service for a whole scenario grid.
	SweepRequest = service.SweepRequest
	// SweepLine is one emitted sweep cell in NDJSON-line form (the
	// EvalService.SweepStreamLines payload): pre-encoded bytes plus whether
	// the cell came from the result store.
	SweepLine = service.SweepLine
	// InvalidRequestError marks spec-level validation failures.
	InvalidRequestError = service.InvalidRequestError
)

// NewEvalService builds an evaluation service.
func NewEvalService(opts EvalOptions) *EvalService { return service.New(opts) }

// CellDigests returns the per-cell content digests of a sweep request in
// the sweep's deterministic result order — the result store's keys, and
// what a job looks up to be served from the store — plus the request
// digest, the digest of the ordered cell list. A cell digest covers the
// cell's resolved display names, its resolved physics, and its solver's
// canonical identity with parameters (see DESIGN.md).
func CellDigests(req SweepRequest) (cells []string, request string, err error) {
	return service.CellDigests(req)
}

// DigestSweep returns the content digest of a sweep request — the job
// status's digest, equal for two requests exactly when they list the same
// cells in the same order — plus the number of scenario cells it expands
// to. The digest is derived from the ordered per-cell digests; see
// CellDigests.
func DigestSweep(req SweepRequest) (digest string, cases int, err error) {
	return service.DigestSweep(req)
}

// Asynchronous job orchestration (internal/jobs) over a cell-granular
// content-addressed result store (internal/store): sweeps submitted as jobs
// run on a bounded priority worker pool, report per-case progress (split
// into evaluated and cache-served cells), cancel via context, dedup against
// the store per cell — a submission whose cells are all stored is served
// in one bulk lookup, overlapping ones evaluate only their novel cells —
// and, with a file-backed store, survive restarts. cmd/batserve exposes the
// job API over HTTP (POST/GET/DELETE /v1/jobs, GET /v1/jobs/{id}/results,
// GET /metrics). Wire the same store into EvalOptions.Store: the service
// writes the cells that jobs and synchronous sweeps both read.
type (
	// JobManager owns the job table, priority queue, and worker pool.
	JobManager = jobs.Manager
	// JobOptions tune a JobManager (worker count, queue depth).
	JobOptions = jobs.Options
	// JobRequest submits a sweep for asynchronous evaluation.
	JobRequest = jobs.Request
	// JobStatus is the wire form of a job (state, progress, stats).
	JobStatus = jobs.Status
	// JobState is a job lifecycle state.
	JobState = jobs.State
	// JobMetrics snapshots the manager's operational counters.
	JobMetrics = jobs.Metrics
	// ResultStore is the content-addressed result store.
	ResultStore = store.Store
	// StoreCounters snapshots the store's entry/hit/miss counters.
	StoreCounters = store.Counters
)

// Job lifecycle states.
const (
	JobQueued    = jobs.StateQueued
	JobRunning   = jobs.StateRunning
	JobDone      = jobs.StateDone
	JobFailed    = jobs.StateFailed
	JobCancelled = jobs.StateCancelled
)

// Job errors.
var (
	// ErrJobNotFound marks an unknown job id.
	ErrJobNotFound = jobs.ErrNotFound
	// ErrJobQueueFull rejects submissions beyond the queue bound.
	ErrJobQueueFull = jobs.ErrQueueFull
	// ErrJobNotDone rejects result reads of unfinished jobs.
	ErrJobNotDone = jobs.ErrNotDone
	// ErrJobFinished rejects cancelling an already-terminal job.
	ErrJobFinished = jobs.ErrFinished
	// ErrJobsShuttingDown rejects submissions after Shutdown began.
	ErrJobsShuttingDown = jobs.ErrShuttingDown
)

// OpenResultStore opens a content-addressed result store. An empty path is
// memory-only; otherwise the path is an append-only NDJSON file replayed on
// open, so completed job results survive restarts.
func OpenResultStore(path string) (*ResultStore, error) { return store.Open(path) }

// Store durability and robustness knobs (internal/store): StoreOptions
// selects the fsync policy — the crash-safety tradeoff — and the
// retry/breaker tuning; ErrStoreDegraded is the fail-fast error of the
// degraded read-only mode entered after persistent write failure.
type (
	// StoreOptions tune a result store (fsync policy, retry/backoff,
	// breaker cooldown).
	StoreOptions = store.Options
	// StoreSyncPolicy says when the store fsyncs its append-only file.
	StoreSyncPolicy = store.SyncPolicy
)

// Fsync policies: never (the OS decides, fastest, a crash can lose recent
// results), interval (bounded loss window, the default), always (every put
// durable before it is acknowledged, slowest).
const (
	StoreSyncNever    = store.SyncNever
	StoreSyncInterval = store.SyncInterval
	StoreSyncAlways   = store.SyncAlways
)

// ErrStoreDegraded is returned by store puts while the write circuit is
// open: the store keeps serving reads (and the service keeps evaluating),
// it just stops caching until a cooldown probe succeeds.
var ErrStoreDegraded = store.ErrDegraded

// ParseStoreSyncPolicy parses "never", "interval", or "always".
func ParseStoreSyncPolicy(s string) (StoreSyncPolicy, error) { return store.ParseSyncPolicy(s) }

// OpenResultStoreWith opens a result store with explicit durability and
// robustness options.
func OpenResultStoreWith(opts StoreOptions) (*ResultStore, error) { return store.OpenWith(opts) }

// NewJobManager builds a job manager executing through svc and
// deduplicating against st — svc's own store (EvalOptions.Store), which
// commits the cells — and starts its worker pool.
func NewJobManager(svc *EvalService, st *ResultStore, opts JobOptions) *JobManager {
	return jobs.New(svc, st, opts)
}

// Monte-Carlo lifetime estimation (internal/mcarlo): sample random loads,
// simulate each on the continuous KiBaM, and summarise the lifetime
// distribution. Also addressable in sweeps as the "montecarlo" solver.
type (
	// MCDistribution summarises sampled lifetimes.
	MCDistribution = mcarlo.Distribution
	// MCGenerator draws one random load.
	MCGenerator = mcarlo.Generator
)

// MCRandomIntermittent generates the paper-style random intermittent loads.
func MCRandomIntermittent(idle, horizon, pHigh float64) MCGenerator {
	return mcarlo.RandomIntermittent(idle, horizon, pHigh)
}

// MCMarkovBurst generates bursty loads from a two-state Markov chain.
func MCMarkovBurst(idle, horizon, pStay float64) MCGenerator {
	return mcarlo.MarkovBurst(idle, horizon, pStay)
}

// MCLifetimeDistribution estimates the lifetime distribution of a policy
// over n sampled loads; deterministic for a fixed seed.
func MCLifetimeDistribution(batteries []BatteryParams, p Policy, gen MCGenerator, n int, seed int64) (MCDistribution, error) {
	return mcarlo.LifetimeDistribution(batteries, p, gen, n, seed)
}

// MCComparePolicies estimates the distributions of several policies on the
// same sampled load sequence (common random numbers), keyed by policy name.
func MCComparePolicies(batteries []BatteryParams, policies []Policy, gen MCGenerator, n int, seed int64) (map[string]MCDistribution, error) {
	return mcarlo.ComparePolicies(batteries, policies, gen, n, seed)
}

// Online session scheduling (internal/session): where the sweep API
// consumes whole recorded loads, a session holds one persistent discrete
// KiBaM system and schedules draw events as they arrive, with an online
// policy deciding against live battery state. Replaying a recorded load
// through a session is bit-identical to the offline run under the same
// policy. cmd/batserve exposes sessions over HTTP (POST /v1/sessions,
// POST /v1/sessions/{id}/step, SSE GET /v1/sessions/{id}/events).
type (
	// SchedSession is one streaming scheduling session.
	SchedSession = session.Session
	// SessionManager owns the session table: bounded opens, idle
	// eviction, step accounting, graceful shutdown.
	SessionManager = session.Manager
	// SessionOptions tune a SessionManager.
	SessionOptions = session.Options
	// SessionTelemetry is the per-step state report.
	SessionTelemetry = session.Telemetry
	// SessionEvent is one server-sent session update.
	SessionEvent = session.Event
	// SessionMetrics snapshots a manager's counters.
	SessionMetrics = session.Metrics
	// SessionSpec is the wire form of a session request (bank, online
	// policy, optional grid).
	SessionSpec = spec.Session
	// OnlinePolicyBuilder is one online-policy registry entry.
	OnlinePolicyBuilder = spec.OnlineBuilder
)

// Session errors.
var (
	// ErrSessionBusy means another step is in flight on the session.
	ErrSessionBusy = session.ErrBusy
	// ErrSessionClosed marks a closed (or evicted) session.
	ErrSessionClosed = session.ErrClosed
	// ErrSessionDead means the session's bank is exhausted for good.
	ErrSessionDead = session.ErrDead
	// ErrSessionNotFound marks an unknown session id.
	ErrSessionNotFound = session.ErrNotFound
	// ErrTooManySessions rejects opens beyond the manager's bound.
	ErrTooManySessions = session.ErrTooManySessions
	// ErrSessionShutdown rejects opens after the manager began draining.
	ErrSessionShutdown = session.ErrShutdown
	// ErrUnknownOnlinePolicy marks a solver name with no online form.
	ErrUnknownOnlinePolicy = spec.ErrUnknownOnlinePolicy
)

// NewSessionManager builds a session manager and starts its idle janitor.
func NewSessionManager(opts SessionOptions) *SessionManager { return session.NewManager(opts) }

// ParseSession strictly decodes a session request.
func ParseSession(data []byte) (SessionSpec, error) { return spec.ParseSession(data) }

// OnlinePolicies lists every registered online policy.
func OnlinePolicies() []OnlinePolicyBuilder { return spec.OnlineBuilders() }

// OnlinePolicyNames lists the registered online policy names, sorted.
func OnlinePolicyNames() []string { return spec.OnlinePolicyNames() }

// GreedySOC schedules each decision onto the battery with the most
// available charge (online form of BestAvailable).
func GreedySOC() Policy { return sched.GreedySOC() }

// EFQ schedules by energy fair queueing: each decision goes to the battery
// with the least virtual time (energy served over capacity weight).
func EFQ() Policy { return sched.EFQ() }

// Observability (internal/obs): a dependency-free metrics registry with
// Prometheus-compatible text exposition, bounded in-memory tracing with
// W3C traceparent propagation, and trace-aware structured logging.
// cmd/batserve wires one registry and tracer across every layer; embedders
// can thread the same instruments through EvalOptions.CellLatency,
// JobOptions.QueueWait/RunLatency, SessionOptions.StepLatency, and
// StoreOptions.AppendLatency.
type (
	// MetricsRegistry owns named counters, gauges, and histograms and
	// renders them as a plain-text exposition.
	MetricsRegistry = obs.Registry
	// Histogram is a fixed-bucket latency histogram; a nil Histogram is a
	// no-op, so instrument hooks cost nothing when unset.
	Histogram = obs.Histogram
	// HistogramSnapshot is a point-in-time copy of a histogram's buckets,
	// count and sum.
	HistogramSnapshot = obs.HistogramSnapshot
	// Tracer records completed spans in a bounded ring.
	Tracer = obs.Tracer
	// Span is one traced operation; a nil Span is a no-op.
	Span = obs.Span
	// TraceLink carries a trace identity across an async boundary (e.g.
	// into a queued job); the zero TraceLink is inert.
	TraceLink = obs.Link
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewHistogram builds a standalone histogram; nil bounds mean the default
// latency buckets (100ns to 10s).
func NewHistogram(bounds []float64) *Histogram { return obs.NewHistogram(bounds) }

// NewTracer builds a tracer whose span ring holds size completed spans
// (<= 0 means the 4096 default).
func NewTracer(size int) *Tracer { return obs.NewTracer(size) }

// WithTracer arms tracing on a context; StartSpan opens a span on an armed
// context and is free (no allocation, nil span) on an unarmed one.
func WithTracer(ctx context.Context, t *Tracer) context.Context { return obs.WithTracer(ctx, t) }

// StartSpan opens a span named name if ctx is armed with a tracer; the
// returned context parents later spans under it.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}
