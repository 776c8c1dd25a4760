package main

import (
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"batsched"
	"batsched/internal/obs"
)

// obsKit bundles the server's observability state: the metrics registry
// behind /metrics, the tracer behind /debug/traces, the structured logger,
// and the latency histograms threaded into the store, job, sweep, and
// session layers. main builds one explicitly so it can wire the histograms
// into layer options before the layers exist; tests that construct an app
// literal get one lazily from newHandler.
type obsKit struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	logger *slog.Logger

	appendLatency *obs.Histogram // store commit (write+retries+fsync)
	queueWait     *obs.Histogram // job submit -> start
	runLatency    *obs.Histogram // job start -> terminal
	cellLatency   *obs.Histogram // one evaluated sweep cell
}

// newObsKit builds the registry, tracer, and the eagerly-registered
// histogram families. Eager registration means the bucket families exist in
// the exposition from the first scrape — like the jobs-by-state gauges,
// they are visible at zero — including one step-latency series per
// registered online policy.
func newObsKit() *obsKit {
	reg := obs.NewRegistry()
	k := &obsKit{
		reg:           reg,
		tracer:        obs.NewTracer(0),
		logger:        obs.NewLogger(io.Discard, slog.LevelInfo),
		appendLatency: reg.Histogram("batserve_store_append_seconds", nil),
		queueWait:     reg.Histogram("batserve_job_queue_wait_seconds", nil),
		runLatency:    reg.Histogram("batserve_job_run_seconds", nil),
		cellLatency:   reg.Histogram("batserve_sweep_cell_eval_seconds", nil),
	}
	for _, name := range batsched.OnlinePolicyNames() {
		k.stepLatency(name)
	}
	return k
}

// stepLatency is the session manager's StepLatency hook: one registry
// histogram per online policy.
func (k *obsKit) stepLatency(policy string) *obs.Histogram {
	return k.reg.Histogram("batserve_session_policy_step_seconds", nil, obs.L("policy", policy))
}

// httpLatency resolves the request-latency histogram for a route/status
// pair.
func (k *obsKit) httpLatency(route string, status int) *obs.Histogram {
	return k.reg.Histogram("batserve_http_request_seconds", nil,
		obs.L("route", route), obs.L("status", strconv.Itoa(status)))
}

// statusWriter records the response status for the instrument middleware. It
// forwards Flush and unwraps for http.NewResponseController, so the SSE and
// NDJSON streaming handlers behave identically under instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument is the per-route observability middleware: it assigns (or
// echoes) X-Request-ID, arms tracing on the request context — continuing an
// incoming W3C traceparent when one parses — opens the route's span,
// answers with the span's traceparent, and observes the request latency
// into the route/status histogram. It wraps every route, including the ones
// guard later sheds with 429/503, so those responses carry the request id
// too.
func (a *app) instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := obs.WithTracer(r.Context(), a.obs.tracer)
		if trace, parent, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx = obs.WithRemoteParent(ctx, trace, parent)
		}
		ctx, span := obs.StartSpan(ctx, "http "+route)
		span.Set("request_id", reqID)
		if tp := span.Traceparent(); tp != "" {
			w.Header().Set("traceparent", tp)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next(sw, r.WithContext(ctx))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		span.SetInt("status", int64(status))
		span.End()
		a.obs.httpLatency(route, status).Observe(elapsed.Seconds())
		a.obs.logger.LogAttrs(ctx, slog.LevelDebug, "request",
			slog.String("route", route), slog.Int("status", status),
			slog.String("request_id", reqID), slog.Duration("elapsed", elapsed))
	}
}

// initObs makes the app's observability state usable no matter how the app
// was constructed: main wires a fully-threaded kit before the layers exist,
// while tests building an app literal get a standalone kit here. The legacy
// metrics collector is registered exactly once per app.
func (a *app) initObs() {
	a.obsOnce.Do(func() {
		if a.obs == nil {
			a.obs = newObsKit()
		}
		a.obs.reg.Collect(a.legacyMetrics)
	})
}

// legacyMetrics bridges the pre-registry operational counters into the
// exposition. Every line it emits is byte-identical to what the
// fprintf-based /metrics handler produced — names, label rendering, and
// order — so existing scrape configs and dashboards keep working. The
// lines that handler had for the retired whole-request store index, the
// per-policy step summaries and the retired cell-artifact cache's size are
// gone; README.md maps each to the series that replaces it, if any. It runs
// as a registry collector: one snapshot of each layer per scrape, emitted
// before the registry's native families.
func (a *app) legacyMetrics(e *obs.Exposition) {
	jm := a.jobs.Metrics()
	cs := a.svc.Stats()
	for _, s := range []batsched.JobState{
		batsched.JobQueued, batsched.JobRunning, batsched.JobDone,
		batsched.JobFailed, batsched.JobCancelled,
	} {
		e.ValL("batserve_jobs", "state", string(s), int64(jm.JobsByState[s]))
	}
	e.Val("batserve_job_queue_depth", int64(jm.QueueDepth))
	e.Val("batserve_job_queue_bound", int64(jm.QueueBound))
	e.Val("batserve_job_cases_evaluated_total", jm.CasesEvaluated)
	e.Val("batserve_job_cases_from_cache_total", jm.CasesFromCache)
	e.Val("batserve_workers_busy", int64(jm.WorkersBusy))
	e.Val("batserve_workers_total", int64(jm.WorkersTotal))
	e.Val("batserve_store_entries", int64(jm.Store.Entries))
	e.Val("batserve_store_cell_hits_total", jm.Store.CellHits)
	e.Val("batserve_store_cell_misses_total", jm.Store.CellMisses)
	e.Val("batserve_store_quarantined_total", jm.Store.Quarantined)
	e.Val("batserve_store_append_errors_total", jm.Store.AppendErrors)
	e.Val("batserve_store_append_retries_total", jm.Store.AppendRetries)
	e.Val("batserve_store_dropped_puts_total", jm.Store.DroppedPuts)
	e.Val("batserve_store_sync_errors_total", jm.Store.SyncErrors)
	degraded := int64(0)
	if jm.Store.Degraded {
		degraded = 1
	}
	e.Val("batserve_store_degraded", degraded)
	e.Val("batserve_job_retries_total", jm.Retries)
	e.Val("batserve_job_panics_total", jm.Panics)
	e.Val("batserve_requests_shed_total", int64(a.shed.Load()))
	// The cache counters count session bank artifacts (Service.CompileBank)
	// only; sweeps never touch that map.
	e.Val("batserve_cache_compiles_total", cs.Compiles)
	e.Val("batserve_cache_hits_total", cs.Hits)
	e.Val("batserve_sweep_cell_hits_total", cs.CellHits)
	e.Val("batserve_sweep_cells_evaluated_total", cs.CellsEvaluated)
	e.Val("batserve_store_errors_total", cs.StoreErrors)
	e.Val("batserve_search_states_total", cs.Search.States)
	e.Val("batserve_search_leaves_total", cs.Search.Leaves)
	e.Val("batserve_search_memo_hits_total", cs.Search.MemoHits)
	e.Val("batserve_search_pruned_total", cs.Search.Pruned)
	e.Val("batserve_search_lp_bounds_total", cs.Search.LPBounds)
	e.Val("batserve_search_lp_pruned_total", cs.Search.LPPruned)
	e.Val("batserve_search_steals_total", cs.Search.Steals)
	e.Val("batserve_search_shared_memo_hits_total", cs.Search.SharedMemoHits)
	sm := a.sessions.Metrics()
	e.Val("batserve_sessions_open", int64(sm.Open))
	e.Val("batserve_sessions_opened_total", int64(sm.Opened))
	e.Val("batserve_sessions_closed_total", int64(sm.Closed))
	e.Val("batserve_sessions_evicted_total", int64(sm.Evicted))
	e.Val("batserve_session_steps_total", int64(sm.Steps))
	e.Val("batserve_session_events_dropped_total", int64(sm.EventsDropped))
	e.Val("batserve_uptime_seconds", int64(time.Since(a.start).Seconds()))
}
