package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"batsched"
)

// maxRequestBytes bounds request bodies; scenario JSON is small, and an
// open evaluation service should not buffer arbitrary uploads.
const maxRequestBytes = 4 << 20

// streamWriteTimeout bounds each batch of a streamed body: the deadline is
// set when a batch's first line is written and again at its flush, so a
// connected client that stops reading cannot wedge a sweep's workers behind
// a full TCP buffer. A var only so tests can shorten it.
var streamWriteTimeout = 30 * time.Second

// An NDJSON body is flushed in batches, not per line: a batch goes out once
// its oldest line is flushDelay old, or once flushBytes are buffered.
const (
	flushDelay = 2 * time.Millisecond
	flushBytes = 32 << 10
)

// nl terminates NDJSON lines; a shared slice so streaming writes do not
// allocate per line.
var nl = []byte{'\n'}

// lineWriter streams NDJSON lines in batches. A timer flushes a batch
// flushDelay after its first line, so no line waits behind a slow cell;
// the writer and the timer share mu, and once close returns the timer
// never touches the ResponseWriter again.
type lineWriter struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	flusher http.Flusher

	mu      sync.Mutex
	timer   *time.Timer
	pending int   // bytes written since the last flush
	err     error // first write error; the stream is dead after it
	done    bool
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	flusher, _ := w.(http.Flusher)
	return &lineWriter{w: w, rc: http.NewResponseController(w), flusher: flusher}
}

// writeLine writes line and its newline terminator. Two writes, not
// append(line, '\n'): lines may be shared (a done job's results serve
// concurrent fetches), and append could write into a shared backing array.
func (lw *lineWriter) writeLine(line []byte) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return lw.err
	}
	first := lw.pending == 0
	if first {
		// net/http's buffer can reach the socket on any Write, so the
		// batch's deadline is armed before its first line, not only at
		// its flush.
		_ = lw.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	}
	if _, err := lw.w.Write(line); err != nil {
		lw.err = err
		return err
	}
	if _, err := lw.w.Write(nl); err != nil {
		lw.err = err
		return err
	}
	lw.pending += len(line) + 1
	switch {
	case lw.pending >= flushBytes:
		lw.flushLocked()
	case first && lw.timer == nil:
		lw.timer = time.AfterFunc(flushDelay, lw.flushTimer)
	case first:
		lw.timer.Reset(flushDelay)
	}
	return nil
}

// flushTimer is the timer's half: flush whatever the batch holds, unless
// the handler is done with the writer.
func (lw *lineWriter) flushTimer() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if !lw.done && lw.err == nil && lw.pending > 0 {
		lw.flushLocked()
	}
}

func (lw *lineWriter) flushLocked() {
	if lw.timer != nil {
		lw.timer.Stop()
	}
	_ = lw.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if lw.flusher != nil {
		lw.flusher.Flush()
	}
	lw.pending = 0
}

// close flushes the tail under the batch deadline, retires the timer and
// clears the deadline: the connection outlives the handler (keep-alive),
// so the deadline must not leak into the next request on it.
func (lw *lineWriter) close() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err == nil && lw.pending > 0 {
		lw.flushLocked()
	}
	if lw.timer != nil {
		lw.timer.Stop()
	}
	lw.done = true
	_ = lw.rc.SetWriteDeadline(time.Time{})
}

// app bundles the long-lived server state the handlers share: the
// synchronous evaluation service, the asynchronous job manager, the result
// store (for the readiness probe), and the start instant for uptime
// reporting.
type app struct {
	svc      *batsched.EvalService
	jobs     *batsched.JobManager
	sessions *batsched.SessionManager
	st       *batsched.ResultStore
	start    time.Time

	// requestTimeout bounds each synchronous evaluation request; 0 means
	// unbounded. A missed deadline answers 504.
	requestTimeout time.Duration
	// maxInflight bounds concurrently executing synchronous evaluation
	// requests; past it requests are shed with 429 instead of queueing on
	// the service semaphore. 0 means unbounded.
	maxInflight int64
	inflight    atomic.Int64
	shed        atomic.Uint64
	// draining flips when graceful shutdown begins: /readyz goes not-ready
	// (so load balancers stop routing here) while in-flight work finishes.
	draining atomic.Bool

	// obs is the observability kit: metrics registry, tracer, logger, and
	// the layer histograms. main threads a kit through the layer options
	// before building the app; when tests construct an app literal without
	// one, newHandler fills it in lazily via initObs.
	obs     *obsKit
	obsOnce sync.Once
}

// newHandler wires the API routes onto a fresh mux. It takes the app state
// (not globals) so httptest can stand up isolated instances. Every route
// runs under the instrument middleware — request id, tracing, and latency
// accounting — with guard (shedding, deadlines) inside it, so even 429/503
// rejections are traced and carry X-Request-ID.
func newHandler(a *app) http.Handler {
	a.initObs()
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, a.instrument(pattern, h))
	}
	route("GET /healthz", a.handleHealth)
	route("GET /readyz", a.handleReady)
	route("GET /metrics", a.handleMetrics)
	route("GET /debug/traces", a.handleTraces)
	route("GET /v1/policies", handlePolicies)
	route("POST /v1/run", a.guard(a.handleRun))
	route("POST /v1/sweep", a.guard(a.handleSweep))
	route("POST /v1/jobs", a.handleJobSubmit)
	route("GET /v1/jobs", a.handleJobList)
	route("GET /v1/jobs/{id}", a.handleJobGet)
	route("GET /v1/jobs/{id}/results", a.handleJobResults)
	route("DELETE /v1/jobs/{id}", a.handleJobCancel)
	route("POST /v1/sessions", a.handleSessionOpen)
	route("GET /v1/sessions/{id}", a.handleSessionGet)
	route("POST /v1/sessions/{id}/step", a.handleSessionStep)
	route("GET /v1/sessions/{id}/events", a.handleSessionEvents)
	route("DELETE /v1/sessions/{id}", a.handleSessionClose)
	return mux
}

// handleTraces dumps the tracer's span ring as JSON, filterable with
// ?trace=<hex id> (the id a job status reports as trace_id) and ?limit=.
func (a *app) handleTraces(w http.ResponseWriter, r *http.Request) {
	a.obs.tracer.ServeDump(w, r)
}

// writeJSON writes v as a single JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps an error to a JSON {"error": ...} payload. Backpressure
// statuses carry Retry-After so well-behaved clients back off instead of
// hammering an already-saturated (or draining) server. The payload echoes
// the request id the instrument middleware stamped on the response header,
// so an error report alone is enough to find the request in logs and traces.
func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	payload := map[string]string{"error": err.Error()}
	if id := w.Header().Get("X-Request-ID"); id != "" {
		payload["request_id"] = id
	}
	writeJSON(w, status, payload)
}

// Load-shedding errors.
var (
	errOverloaded = errors.New("server overloaded: too many requests in flight")
	errDraining   = errors.New("server is draining")
)

// guard is the load-shedding and deadline middleware on the synchronous
// evaluation endpoints: a draining server answers 503, one past its
// in-flight bound sheds with 429 (both with Retry-After), and accepted
// requests run under the per-request timeout.
func (a *app) guard(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if a.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, errDraining)
			return
		}
		if a.maxInflight > 0 {
			if a.inflight.Add(1) > a.maxInflight {
				a.inflight.Add(-1)
				a.shed.Add(1)
				writeError(w, http.StatusTooManyRequests, errOverloaded)
				return
			}
			defer a.inflight.Add(-1)
		}
		if a.requestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), a.requestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next(w, r)
	}
}

// decodeBody strictly decodes one JSON value from the request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// buildVersion resolves the server's build identity once (module version
// plus toolchain); "unknown" outside module builds.
var buildVersion = func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	return v + " " + bi.GoVersion
}()

// handleHealth reports liveness plus the operational gauges a load balancer
// or operator polls cheaply: uptime, build identity, the job-queue depth
// and running jobs, and open sessions.
func (a *app) handleHealth(w http.ResponseWriter, r *http.Request) {
	jm := a.jobs.Metrics()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          "ok",
		"uptime_seconds":  int64(time.Since(a.start).Seconds()),
		"build":           buildVersion,
		"job_queue_depth": jm.QueueDepth,
		"jobs_running":    jm.JobsByState[batsched.JobRunning],
		"sessions_open":   a.sessions.Metrics().Open,
	})
}

// handleReady is the readiness probe, distinct from /healthz liveness: a
// live server is not ready while draining (shutdown began; stop routing
// new work here) or while the store's write circuit is open (results are
// still served and evaluated, but nothing new is cached — prefer a healthy
// replica when there is one).
func (a *app) handleReady(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if a.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if a.st.Degraded() {
		reasons = append(reasons, "store degraded: write circuit open")
	}
	if len(reasons) > 0 {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "not ready", "reasons": reasons,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// policyInfo is one registry entry in wire form.
type policyInfo struct {
	Name    string   `json:"name"`
	Aliases []string `json:"aliases,omitempty"`
	Doc     string   `json:"doc"`
}

// handlePolicies lists every solver the registry (and thus the whole API
// surface) can address by name, plus the online policies sessions accept.
func handlePolicies(w http.ResponseWriter, r *http.Request) {
	builders := batsched.Solvers()
	out := make([]policyInfo, len(builders))
	for i, b := range builders {
		out[i] = policyInfo{Name: b.Name, Aliases: b.Aliases, Doc: b.Doc}
	}
	onlines := batsched.OnlinePolicies()
	online := make([]policyInfo, len(onlines))
	for i, b := range onlines {
		online[i] = policyInfo{Name: b.Name, Aliases: b.Aliases, Doc: b.Doc}
	}
	writeJSON(w, http.StatusOK, map[string]any{"policies": out, "online": online})
}

// handleRun evaluates a single scenario cell.
func (a *app) handleRun(w http.ResponseWriter, r *http.Request) {
	var req batsched.RunRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := a.svc.Evaluate(r.Context(), req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if res.Error != "" {
		// The cell is well-formed but the solver failed (budget
		// exhausted, horizon too short, ...): the request itself is not
		// at fault.
		writeJSON(w, http.StatusUnprocessableEntity, res)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleSweep evaluates a scenario grid, streaming one NDJSON line per cell
// in deterministic nested order as soon as each result's predecessors are
// done. Lines go out in batches (see lineWriter): each at most flushDelay
// after it is written, or sooner once flushBytes are buffered.
func (a *app) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req batsched.SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The header is deferred until the first result: SweepStreamLines
	// validates the scenario itself (once — no separate Validate pass),
	// so spec errors still surface with a proper status code.
	lw := newLineWriter(w)
	defer lw.close()
	streaming := false
	err := a.svc.SweepStreamLines(r.Context(), req, func(sl batsched.SweepLine) error {
		if !streaming {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			streaming = true
		}
		// A connected client that stops reading would otherwise block
		// this write forever — and with it the sweep's workers and a
		// service concurrency slot. The batch deadline bounds it; a
		// missed deadline fails the emit, which cancels the sweep's
		// remaining cells. The service hands over pre-encoded line bytes
		// (cached cells pass store bytes straight through), so the
		// handler writes, it never marshals.
		return lw.writeLine(sl.Line)
	})
	if err != nil && !streaming {
		writeError(w, statusFor(err), err)
		return
	}
	// After the first line the headers are out; an error mid-stream can
	// only cut the stream short.
}

// statusFor distinguishes caller mistakes (bad spec → 400) from a missed
// per-request deadline (504) and the rest of server trouble.
func statusFor(err error) int {
	var invalid *batsched.InvalidRequestError
	switch {
	case errors.As(err, &invalid):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}
