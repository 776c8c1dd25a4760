package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/obs"
	"batsched/internal/sched"
	"batsched/internal/spec"
	"batsched/internal/sweep"
)

// Manager errors.
var (
	// ErrTooManySessions means the bounded session table is full (HTTP 429).
	ErrTooManySessions = errors.New("session: too many open sessions")
	// ErrNotFound means no session has the given id.
	ErrNotFound = errors.New("session: no such session")
	// ErrShutdown means the manager is draining and opens are refused.
	ErrShutdown = errors.New("session: manager is shut down")
)

// Defaults for Options zero values.
const (
	DefaultMaxSessions = 64
	DefaultIdleTTL     = 5 * time.Minute
)

// Options tune a Manager.
type Options struct {
	// MaxSessions bounds the number of concurrently open sessions; opens
	// beyond it fail with ErrTooManySessions. <= 0 means 64.
	MaxSessions int
	// IdleTTL evicts sessions with no step for this long. <= 0 means 5
	// minutes.
	IdleTTL time.Duration
	// CompileBank supplies the shared bank artifact for a resolved bank on
	// a grid; nil means core.CompileBank, one artifact per session.
	// cmd/batserve plugs in the service's CompileBank, whose bounded map
	// hands every session on one bank the same artifact.
	CompileBank func(bats []battery.Params, grid sweep.GridSpec) (*core.Compiled, error)
	// StepLatency supplies the histogram that records a policy's step
	// latency (seconds); nil means a standalone default-bucket histogram
	// per policy. cmd/batserve plugs registry-owned histograms in here so
	// step latency shows up in /metrics as a labeled bucket family.
	StepLatency func(policy string) *obs.Histogram
}

// Manager owns the session table: bounded opens, idle eviction, step
// accounting, and graceful shutdown. Safe for concurrent use.
type Manager struct {
	opts Options

	mu       sync.Mutex
	sessions map[string]*Session
	perPol   map[string]*obs.Histogram
	opened   uint64
	closed   uint64
	evicted  uint64
	steps    uint64
	// dropped accumulates the dropped-event tallies of closed sessions;
	// open sessions are summed live in Metrics.
	dropped uint64
	down    bool

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewManager builds a manager and starts its idle-eviction janitor.
func NewManager(opts Options) *Manager {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	if opts.IdleTTL <= 0 {
		opts.IdleTTL = DefaultIdleTTL
	}
	if opts.CompileBank == nil {
		opts.CompileBank = func(bats []battery.Params, grid sweep.GridSpec) (*core.Compiled, error) {
			return core.CompileBank(bats, grid.StepMin, grid.UnitAmpMin)
		}
	}
	if opts.StepLatency == nil {
		opts.StepLatency = func(string) *obs.Histogram { return obs.NewHistogram(nil) }
	}
	m := &Manager{
		opts:        opts,
		sessions:    map[string]*Session{},
		perPol:      map[string]*obs.Histogram{},
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go m.janitor()
	return m
}

// newID returns a fresh random session id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("session: id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Open resolves a session spec — bank, online policy, optional grid — and
// opens a session on the shared bank artifact.
func (m *Manager) Open(sp spec.Session) (*Session, error) {
	_, bats, err := sp.Bank.Resolve()
	if err != nil {
		return nil, err
	}
	var grid spec.Grid
	if sp.Grid != nil {
		grid = *sp.Grid
	}
	policy, err := spec.BuildOnlinePolicy(sp.Policy)
	if err != nil {
		return nil, err
	}
	canonical, ok := spec.LookupOnline(sp.Policy.Name)
	if !ok {
		return nil, fmt.Errorf("%w %q", spec.ErrUnknownOnlinePolicy, sp.Policy.Name)
	}
	art, err := m.opts.CompileBank(bats, grid.Resolve())
	if err != nil {
		return nil, err
	}
	return m.open(art, canonical.Name, policy)
}

// open installs a session for an already-compiled artifact and policy.
func (m *Manager) open(art *core.Compiled, policyName string, policy sched.Policy) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return nil, ErrShutdown
	}
	if len(m.sessions) >= m.opts.MaxSessions {
		return nil, fmt.Errorf("%w (limit %d)", ErrTooManySessions, m.opts.MaxSessions)
	}
	id := newID()
	for m.sessions[id] != nil {
		id = newID()
	}
	s, err := New(id, art, policyName, policy)
	if err != nil {
		return nil, err
	}
	m.sessions[id] = s
	m.opened++
	return s, nil
}

// Get returns the open session with the given id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w (%q)", ErrNotFound, id)
	}
	return s, nil
}

// Step routes one draw event to a session and accounts for it: the step
// counter, the per-policy latency ledger, and the idle clock all live
// here, so every transport (HTTP, tests, benchmarks-through-manager) is
// metered the same way.
func (m *Manager) Step(id string, currentA, durationMin float64, out *Telemetry) error {
	s, err := m.Get(id)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := s.Step(currentA, durationMin, out); err != nil {
		return err
	}
	elapsed := time.Since(start)
	m.mu.Lock()
	m.steps++
	h := m.perPol[s.Policy()]
	if h == nil {
		h = m.opts.StepLatency(s.Policy())
		m.perPol[s.Policy()] = h
	}
	m.mu.Unlock()
	h.Observe(elapsed.Seconds())
	return nil
}

// Close closes and removes one session.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.closed++
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w (%q)", ErrNotFound, id)
	}
	s.Close("closed")
	m.harvestDropped(s)
	return nil
}

// harvestDropped folds a closed session's dropped-event tally into the
// manager's lifetime counter. Must run after s.Close (the count is final
// then: Close waits out an in-flight step, so no publish follows it).
func (m *Manager) harvestDropped(s *Session) {
	if n := s.DroppedEvents(); n > 0 {
		m.mu.Lock()
		m.dropped += n
		m.mu.Unlock()
	}
}

// janitor evicts idle sessions until the manager shuts down.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	interval := m.opts.IdleTTL / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-ticker.C:
			m.evictIdle(time.Now())
		}
	}
}

// evictIdle closes every session idle past the TTL.
func (m *Manager) evictIdle(now time.Time) {
	var victims []*Session
	m.mu.Lock()
	for id, s := range m.sessions {
		if now.Sub(s.LastUsed()) > m.opts.IdleTTL {
			delete(m.sessions, id)
			m.evicted++
			victims = append(victims, s)
		}
	}
	m.mu.Unlock()
	for _, s := range victims {
		s.Close("idle-evicted")
		m.harvestDropped(s)
	}
}

// Shutdown closes every session (delivering final events to open SSE
// subscribers, which unblocks their in-flight HTTP requests) and stops the
// janitor. It must run before the HTTP server's own drain — a streaming
// /events request never ends on its own, so the server-side close here is
// what lets http.Server.Shutdown finish. Further opens fail with
// ErrShutdown. The context bounds nothing today (session closes only wait
// out an in-flight step) but keeps the drain signature uniform with the
// job manager's.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.down {
		m.mu.Unlock()
		<-m.janitorDone
		return nil
	}
	m.down = true
	victims := make([]*Session, 0, len(m.sessions))
	for id, s := range m.sessions {
		delete(m.sessions, id)
		m.closed++
		victims = append(victims, s)
	}
	m.mu.Unlock()
	close(m.janitorStop)
	for _, s := range victims {
		s.Close("shutdown")
		m.harvestDropped(s)
	}
	<-m.janitorDone
	return ctx.Err()
}

// Metrics is a counter snapshot for /metrics.
type Metrics struct {
	// Open is the current session count; the rest are lifetime counters.
	Open    int
	Opened  uint64
	Closed  uint64
	Evicted uint64
	Steps   uint64
	// EventsDropped counts step events dropped on full subscriber buffers
	// across all sessions, open and closed.
	EventsDropped uint64
}

// Metrics returns a snapshot of the manager's counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Metrics{
		Open:          len(m.sessions),
		Opened:        m.opened,
		Closed:        m.closed,
		Evicted:       m.evicted,
		Steps:         m.steps,
		EventsDropped: m.dropped,
	}
	for _, s := range m.sessions {
		out.EventsDropped += s.DroppedEvents()
	}
	return out
}
