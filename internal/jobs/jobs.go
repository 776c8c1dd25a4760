// Package jobs is the asynchronous orchestration layer over the evaluation
// service: sweeps become durable jobs instead of blocking HTTP requests.
//
// A submitted sweep is digested per cell (service.CellDigests) and looked
// up in the content-addressed result store in one bulk probe: when every
// cell is stored — whichever job or synchronous sweep produced it — the
// job is served at once, without touching the queue. Otherwise it is
// queued for a bounded priority worker pool that executes it through
// service.SweepStreamLines; the service commits each evaluated cell, so a
// merely overlapping sweep evaluates only the cells no earlier sweep
// produced, and with a file-backed store both survive restarts. Jobs move
// queued → running → done/failed/cancelled, expose per-case progress
// counters (split into evaluated and cache-served cells), cancel via
// context, and preserve the sweep's deterministic result ordering: the
// result lines are byte-identical to what the synchronous NDJSON endpoint
// streams for the same request.
package jobs

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"batsched/internal/faults"
	"batsched/internal/obs"
	"batsched/internal/sched"
	"batsched/internal/service"
	"batsched/internal/spec"
	"batsched/internal/store"
	"batsched/internal/sweep"
)

// State is a job lifecycle state.
type State string

// Job lifecycle: Queued and Running are transient; Done, Failed, and
// Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// States lists every job state in lifecycle order (metrics iterate it so
// gauges exist even at zero).
var States = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// Request submits a sweep for asynchronous evaluation.
type Request struct {
	// Scenario is the sweep to evaluate (same shape as the synchronous
	// sweep endpoint).
	Scenario spec.Scenario `json:"scenario"`
	// Workers bounds the sweep's worker pool (0 = number of CPUs).
	Workers int `json:"workers,omitempty"`
	// Priority orders the queue: higher runs first, FIFO within a priority.
	Priority int `json:"priority,omitempty"`
	// TimeoutSec is the per-job deadline in seconds (0 = the manager's
	// default). It can tighten the manager's Options.JobTimeout but not
	// exceed it. The deadline covers execution, not queue time, and does
	// not enter the request digest — the same sweep under a different
	// deadline is still the same cached result.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// Status is the wire form of a job.
type Status struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Digest   string `json:"digest"`
	Priority int    `json:"priority,omitempty"`
	// TotalCases is the number of scenario cells the sweep expands to;
	// DoneCases counts cells whose results have been emitted (deterministic
	// order, so this is also the length of the readable result prefix).
	TotalCases int `json:"total_cases"`
	DoneCases  int `json:"done_cases"`
	// CachedCases counts emitted cells that were served from the
	// cell-granular result store instead of evaluated; DoneCases minus
	// CachedCases is the work this job actually performed. A sweep
	// overlapping an earlier one reports most of its cells here.
	CachedCases int `json:"cached_cases,omitempty"`
	// FromStore marks a submission whose every cell was already in the
	// result store: zero cells were evaluated and the job never entered the
	// queue.
	FromStore bool `json:"from_store,omitempty"`
	// Error is the job-level failure; per-cell failures live in the result
	// lines, exactly as on the synchronous endpoint. A recovered worker
	// panic lands here with its stack trace.
	Error string `json:"error,omitempty"`
	// Attempts counts evaluation attempts: 1 for a clean run, more when
	// transient failures were retried.
	Attempts int `json:"attempts,omitempty"`
	// Stats sums the optimal search's work counters over the job's
	// evaluated cells (cache-served cells did no search work); omitted when
	// no cell ran a search.
	Stats *sched.SearchStats `json:"stats,omitempty"`
	// TraceID is the trace the submit request belonged to, when tracing was
	// armed: feed it to GET /debug/traces?trace= to see the job's spans.
	TraceID     string `json:"trace_id,omitempty"`
	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (s Status) Terminal() bool {
	return s.State == StateDone || s.State == StateFailed || s.State == StateCancelled
}

// Job errors.
var (
	// ErrNotFound marks an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrQueueFull rejects submissions beyond the queue bound.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShuttingDown rejects submissions after Shutdown began.
	ErrShuttingDown = errors.New("jobs: manager shutting down")
	// ErrNotDone rejects result reads of unfinished or failed jobs.
	ErrNotDone = errors.New("jobs: results not available")
	// ErrFinished rejects cancelling a job already in a terminal state.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrDeadline marks a job killed by its own deadline (as opposed to a
	// shutdown or client cancellation): the job fails, it is not retried.
	ErrDeadline = errors.New("jobs: job deadline exceeded")
)

// panicError wraps a panic recovered at the job-run boundary (injection
// hooks, service entry) — panics inside sweep workers arrive as
// *sweep.PanicError instead. Both mark the job failed with the stack in
// its status.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("jobs: run panicked: %v", e.value)
}

// job is the manager-internal job record; all mutable fields are guarded by
// the manager mutex.
type job struct {
	id       string
	seq      int64
	priority int
	req      Request
	digest   string
	total    int

	state     State
	fromStore bool
	cached    int
	attempts  int
	timeout   time.Duration // per-job deadline (0 = none), resolved at submit
	link      obs.Link      // the submit request's trace identity (zero = untraced)
	errText   string
	stats     *sched.SearchStats
	submitted time.Time
	started   time.Time
	finished  time.Time

	// lines are the emitted result lines (no trailing newline), in the
	// sweep's deterministic order; complete only in StateDone.
	lines []json.RawMessage
	// cancel aborts the running sweep; nil until the job starts.
	cancel context.CancelFunc
	// cancelRequested marks a DELETE that raced job startup: the worker
	// cancels immediately instead of running.
	cancelRequested bool
	// heapIdx is the job's position in the queue heap; -1 once popped or
	// removed.
	heapIdx int
	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// Options tune a Manager.
type Options struct {
	// Workers is the number of jobs executing concurrently; <= 0 means
	// runtime.NumCPU(). Note each job's sweep has its own inner pool and
	// the service bounds total executing requests, so this mainly controls
	// how many jobs make progress at once.
	Workers int
	// QueueDepth bounds jobs waiting to run; <= 0 means 256. Submissions
	// beyond the bound fail with ErrQueueFull.
	QueueDepth int
	// RetainJobs bounds the job table; <= 0 means 1024. When a submission
	// would exceed it, the oldest *terminal* jobs are evicted (active jobs
	// never are, so the table can transiently exceed the bound while
	// everything is in flight). Evicted jobs answer ErrNotFound; their
	// results remain in the store and an identical resubmission is still a
	// store hit.
	RetainJobs int
	// MaxRetries bounds how many times a job's evaluation is re-attempted
	// after a transient failure (injected faults, store hiccups — not
	// panics, cancellations, deadlines, or invalid requests). 0 means 2;
	// negative disables retries.
	MaxRetries int
	// JobTimeout is the default per-job execution deadline (0 = none). A
	// request's TimeoutSec can tighten it but not exceed it. A job that
	// overruns fails with ErrDeadline — it is not reported as cancelled.
	JobTimeout time.Duration
	// RetryBase is the base of the exponential backoff between attempts
	// (default 50ms, capped at 1s); Sleep is injectable for tests.
	RetryBase time.Duration
	Sleep     func(time.Duration)
	// Injector arms fault injection at the job-run hook (operation
	// "jobs.run", consulted once per attempt). Chaos tests only; nil — the
	// default — is free.
	Injector *faults.Injector
	// QueueWait, when set, observes each job's queued seconds (submit to
	// start; store-served submissions never queue and are not observed).
	// RunLatency observes each job's execution seconds (start to terminal,
	// retries included). Nil histograms are no-ops.
	QueueWait  *obs.Histogram
	RunLatency *obs.Histogram
}

// Default bounds for the corresponding Options fields when unset.
const (
	DefaultQueueDepth = 256
	DefaultRetainJobs = 1024
	DefaultMaxRetries = 2
)

// OpJobRun is the fault-injection operation consulted once per job
// evaluation attempt.
const OpJobRun = "jobs.run"

// Manager owns the job table, the priority queue, and the worker pool. It
// is safe for concurrent use.
type Manager struct {
	svc        *service.Service
	st         *store.Store
	workers    int
	depth      int
	retain     int
	maxRetries int
	jobTimeout time.Duration
	retryBase  time.Duration
	sleep      func(time.Duration)
	inj        *faults.Injector
	queueWait  *obs.Histogram
	runLat     *obs.Histogram

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*job
	order  []string
	queue  jobQueue
	seq    int64
	closed bool

	wg         sync.WaitGroup
	busy       atomic.Int64
	cases      atomic.Int64
	cacheCases atomic.Int64
	retries    atomic.Int64
	panics     atomic.Int64
}

// New builds a Manager executing jobs through svc, deduplicating against
// st, and starts its worker pool. st must be non-nil (use store.Open("")
// for a memory-only store) and should be svc's own store: the service
// commits the cells jobs evaluate, and the manager only reads them.
func New(svc *service.Service, st *store.Store, opts Options) *Manager {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	retain := opts.RetainJobs
	if retain <= 0 {
		retain = DefaultRetainJobs
	}
	maxRetries := opts.MaxRetries
	if maxRetries == 0 {
		maxRetries = DefaultMaxRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	retryBase := opts.RetryBase
	if retryBase <= 0 {
		retryBase = 50 * time.Millisecond
	}
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	m := &Manager{
		svc:        svc,
		st:         st,
		workers:    workers,
		depth:      depth,
		retain:     retain,
		maxRetries: maxRetries,
		jobTimeout: opts.JobTimeout,
		retryBase:  retryBase,
		sleep:      sleep,
		inj:        opts.Injector,
		queueWait:  opts.QueueWait,
		runLat:     opts.RunLatency,
		jobs:       make(map[string]*job),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.work()
	}
	return m
}

// Store exposes the manager's result store (for metrics and direct reads).
func (m *Manager) Store() *store.Store { return m.st }

// Submit validates and enqueues a sweep job. When the result store already
// holds every cell of the request, the returned job is immediately done
// with FromStore set and no cell is evaluated.
func (m *Manager) Submit(req Request) (Status, error) {
	return m.SubmitContext(context.Background(), req)
}

// SubmitContext is Submit carrying the caller's context: when the context
// holds an active span (the HTTP submit handler's), its trace identity is
// captured so the job's asynchronous execution continues the same trace and
// the job status reports the trace id.
func (m *Manager) SubmitContext(ctx context.Context, req Request) (Status, error) {
	link := obs.LinkFromContext(ctx)
	cells, digest, err := service.CellDigests(service.SweepRequest{Scenario: req.Scenario, Workers: req.Workers})
	if err != nil {
		return Status{}, err
	}
	lines, hit := m.st.LookupAll(cells)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Status{}, ErrShuttingDown
	}
	if !hit && len(m.queue) >= m.depth {
		return Status{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.depth)
	}
	m.seq++
	timeout := m.jobTimeout
	if req.TimeoutSec > 0 {
		reqTO := time.Duration(req.TimeoutSec * float64(time.Second))
		if timeout == 0 || reqTO < timeout {
			timeout = reqTO
		}
	}
	j := &job{
		id:        fmt.Sprintf("job-%d", m.seq),
		seq:       m.seq,
		priority:  req.Priority,
		req:       req,
		digest:    digest,
		total:     len(cells),
		timeout:   timeout,
		link:      link,
		submitted: time.Now(),
		heapIdx:   -1, // set by the heap on push
		done:      make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	if hit {
		j.state = StateDone
		j.fromStore = true
		j.lines = lines
		j.finished = j.submitted
		close(j.done)
		return j.status(), nil
	}
	j.state = StateQueued
	heap.Push(&m.queue, j)
	m.cond.Signal()
	return j.status(), nil
}

// Get returns a job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// List returns every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, len(m.order))
	for i, id := range m.order {
		out[i] = m.jobs[id].status()
	}
	return out
}

// Results returns a done job's result lines (no trailing newlines) in the
// sweep's deterministic order. Reading an unfinished, failed, or cancelled
// job fails with ErrNotDone.
func (m *Manager) Results(id string) ([]json.RawMessage, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.state != StateDone {
		return nil, fmt.Errorf("%w (job %s is %s)", ErrNotDone, id, j.state)
	}
	return j.lines, nil
}

// Cancel cancels a queued or running job. Queued jobs go terminal at once;
// running jobs transition once the sweep observes the cancellation (poll
// the status or Wait for the terminal state).
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		// Remove from the heap now: a terminal corpse left behind would
		// count against the queue bound and stall behind busy workers.
		if j.heapIdx >= 0 {
			heap.Remove(&m.queue, j.heapIdx)
		}
		m.finishLocked(j, StateCancelled, "cancelled while queued")
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	default:
		return j.status(), fmt.Errorf("%w (job %s is %s)", ErrFinished, id, j.state)
	}
	return j.status(), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	select {
	case <-j.done:
		return m.Get(id)
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// Metrics is a snapshot of the manager's operational counters.
type Metrics struct {
	// JobsByState counts jobs per lifecycle state (every state present).
	JobsByState map[State]int
	// QueueDepth is the number of jobs waiting to run; QueueBound the
	// configured maximum.
	QueueDepth, QueueBound int
	// CasesEvaluated counts scenario cells actually executed by jobs;
	// CasesFromCache counts job cells served from the cell-granular result
	// store while running (submissions served whole from the store add to
	// neither — those jobs never run).
	CasesEvaluated int64
	CasesFromCache int64
	// WorkersBusy and WorkersTotal report pool utilization.
	WorkersBusy, WorkersTotal int
	// Retries counts transient-failure re-attempts; Panics counts worker
	// panics recovered into failed jobs.
	Retries, Panics int64
	// Store reports the result store's entry and cell hit/miss counters.
	Store store.Counters
}

// Metrics returns a snapshot of the job counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	by := make(map[State]int, len(States))
	for _, s := range States {
		by[s] = 0
	}
	for _, j := range m.jobs {
		by[j.state]++
	}
	depth := len(m.queue)
	m.mu.Unlock()
	return Metrics{
		JobsByState:    by,
		QueueDepth:     depth,
		QueueBound:     m.depth,
		CasesEvaluated: m.cases.Load(),
		CasesFromCache: m.cacheCases.Load(),
		WorkersBusy:    int(m.busy.Load()),
		WorkersTotal:   m.workers,
		Retries:        m.retries.Load(),
		Panics:         m.panics.Load(),
		Store:          m.st.Counters(),
	}
}

// Shutdown drains the manager: no new submissions, still-queued jobs are
// cancelled (they never started), running jobs finish — until ctx expires,
// at which point they are cancelled — and the worker pool exits. The result
// store is left open; close it separately after Shutdown returns.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		for m.queue.Len() > 0 {
			j := heap.Pop(&m.queue).(*job)
			if j.state == StateQueued {
				m.finishLocked(j, StateCancelled, "cancelled at shutdown")
			}
		}
		m.cond.Broadcast()
	}
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}
	// Drain timeout: cancel the running jobs and wait for the workers to
	// observe it — sweeps check their cancel channel per cell, so this is
	// prompt.
	m.mu.Lock()
	for _, j := range m.jobs {
		if j.state == StateRunning {
			j.cancelRequested = true
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
	m.mu.Unlock()
	<-finished
	return ctx.Err()
}

// work is one worker: pop the highest-priority queued job, run it, repeat
// until shutdown empties the queue.
func (m *Manager) work() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queue.Len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.queue.Len() == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(&m.queue).(*job)
		if j.state != StateQueued {
			// Cancelled while queued; already terminal.
			m.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		if j.cancelRequested {
			cancel()
		}
		m.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
		m.mu.Unlock()

		m.busy.Add(1)
		m.run(ctx, j)
		cancel()
		m.busy.Add(-1)
	}
}

// run executes one job's sweep — retrying transient failures up to the
// manager's retry budget — and records the outcome. Every attempt runs
// inside a recover frame: a panic anywhere in the evaluation marks the job
// failed with the stack in its status, and the worker (and process)
// survive to run the next job.
func (m *Manager) run(ctx context.Context, j *job) {
	// Re-arm the submit request's trace on the worker context so the job's
	// spans — and everything the sweep records below them — land in the same
	// trace the client saw on its submit response.
	ctx = j.link.Context(ctx)
	ctx, span := obs.StartSpan(ctx, "jobs.run")
	span.Set("job", j.id)
	runStart := time.Now()
	var err error
	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		j.attempts = attempt + 1
		m.mu.Unlock()
		err = m.runAttempt(ctx, j)
		if err == nil || attempt >= m.maxRetries || !retryable(err) {
			break
		}
		m.retries.Add(1)
		m.sleep(retryBackoff(m.retryBase, attempt))
	}

	var jpe *panicError
	var spe *sweep.PanicError

	m.mu.Lock()
	switch {
	case err == nil:
		m.finishLocked(j, StateDone, "")
	case errors.As(err, &jpe):
		m.panics.Add(1)
		m.finishLocked(j, StateFailed, fmt.Sprintf("panic: %v\n%s", jpe.value, jpe.stack))
	case errors.As(err, &spe):
		m.panics.Add(1)
		m.finishLocked(j, StateFailed, fmt.Sprintf("panic: %v\n%s", spe.Value, spe.Stack))
	case errors.Is(err, context.Canceled) && j.cancelRequested:
		m.finishLocked(j, StateCancelled, "cancelled while running")
	case errors.Is(err, ErrDeadline):
		// The job's own deadline, not a shutdown: this is a failure the
		// submitter must see, not a cancellation they asked for.
		m.finishLocked(j, StateFailed, err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Shutdown-deadline cancellation without an explicit Cancel call.
		m.finishLocked(j, StateCancelled, err.Error())
	default:
		m.finishLocked(j, StateFailed, err.Error())
	}
	outcome, attempts := j.state, j.attempts
	m.mu.Unlock()

	m.runLat.ObserveSince(runStart)
	span.Set("outcome", string(outcome)).SetInt("attempts", int64(attempts))
	span.End()
}

// runAttempt is one evaluation attempt: fault-injection gate, per-job
// deadline, the sweep itself, with panics converted to errors.
func (m *Manager) runAttempt(ctx context.Context, j *job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{value: p, stack: debug.Stack()}
		}
	}()
	// A retry starts from scratch: the progress counters must not glue a
	// failed attempt's partial prefix onto the new one.
	m.mu.Lock()
	j.lines, j.cached, j.stats = nil, 0, nil
	m.mu.Unlock()
	if err := m.inj.Check(OpJobRun); err != nil {
		return err
	}
	actx := ctx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	// Pre-sized from the grid dimensions; the emit callback's line buffer is
	// reused by the service, so retention is exactly one copy per cell —
	// the copy the job table has to own anyway.
	lines := make([]json.RawMessage, 0, j.total)
	cached := 0
	err = m.svc.SweepStreamLines(actx, service.SweepRequest{Scenario: j.req.Scenario, Workers: j.req.Workers},
		func(sl service.SweepLine) error {
			// The service encodes lines exactly as the synchronous NDJSON
			// endpoint does (minus the newline the reader adds back), which
			// is what keeps job results byte-identical to /v1/sweep.
			lines = append(lines, append(json.RawMessage(nil), sl.Line...))
			if sl.Cached {
				cached++
				m.cacheCases.Add(1)
			} else {
				m.cases.Add(1)
			}
			m.mu.Lock()
			j.lines = lines
			j.cached = cached
			if sl.Stats != nil {
				if j.stats == nil {
					j.stats = &sched.SearchStats{}
				}
				j.stats.Add(*sl.Stats)
			}
			m.mu.Unlock()
			return nil
		})
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		// Our own timer fired, not the caller's context: name it so the
		// outcome classification can tell a deadline from a shutdown.
		err = fmt.Errorf("%w (after %s)", ErrDeadline, j.timeout)
	}
	return err
}

// retryable reports whether an attempt error is transient: worth retrying
// rather than final. Cancellations, deadlines, panics, and invalid
// requests are final; injected faults, store errors, and other incidental
// failures are not.
func retryable(err error) bool {
	var jpe *panicError
	var spe *sweep.PanicError
	var inv *service.InvalidRequestError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, ErrDeadline):
		return false
	case errors.As(err, &jpe), errors.As(err, &spe), errors.As(err, &inv):
		return false
	}
	return true
}

// retryBackoff is the delay before retry attempt (0-based): base·2^attempt
// capped at 1s.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	d := base << uint(min(attempt, 10))
	if d > time.Second {
		d = time.Second
	}
	return d
}

// evictLocked drops the oldest terminal jobs while the table exceeds the
// retention bound; the manager mutex is held. Active (queued/running) jobs
// are never evicted — their results and lifecycle are still needed — so the
// table is bounded by retain + in-flight jobs. Evicted results stay in the
// store, addressable by resubmitting the same spec.
func (m *Manager) evictLocked() {
	if len(m.jobs) <= m.retain {
		return
	}
	kept := m.order[:0]
	for i, id := range m.order {
		j := m.jobs[id]
		if len(m.jobs) <= m.retain {
			kept = append(kept, m.order[i:]...)
			break
		}
		switch j.state {
		case StateDone, StateFailed, StateCancelled:
			delete(m.jobs, id)
		default:
			kept = append(kept, id)
		}
	}
	m.order = kept
}

// finishLocked moves a job to a terminal state; the manager mutex is held.
func (m *Manager) finishLocked(j *job, s State, errText string) {
	if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
		return
	}
	j.state = s
	j.errText = errText
	j.finished = time.Now()
	close(j.done)
}

// status snapshots the job; the manager mutex must be held.
func (j *job) status() Status {
	st := Status{
		ID:          j.id,
		State:       j.state,
		Digest:      j.digest,
		Priority:    j.priority,
		TotalCases:  j.total,
		DoneCases:   len(j.lines),
		CachedCases: j.cached,
		FromStore:   j.fromStore,
		Error:       j.errText,
		Attempts:    j.attempts,
	}
	if j.stats != nil {
		c := *j.stats
		st.Stats = &c
	}
	st.TraceID = j.link.Trace()
	fmtTime := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	st.SubmittedAt = fmtTime(j.submitted)
	st.StartedAt = fmtTime(j.started)
	st.FinishedAt = fmtTime(j.finished)
	return st
}
