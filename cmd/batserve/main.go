// Command batserve is the long-lived HTTP evaluation service of the
// battery-scheduling reproduction. It serves the serializable scenario API
// synchronously and as durable asynchronous jobs:
//
//	GET    /healthz              liveness: uptime, build, cache + queue gauges
//	GET    /readyz               readiness: 503 while draining or store-degraded
//	GET    /metrics              plain-text operational counters + histograms
//	GET    /debug/traces         recent spans (JSON), ?trace= filters one trace
//	GET    /v1/policies          every solver addressable by name (with aliases)
//	POST   /v1/run               evaluate one scenario cell -> one JSON object
//	POST   /v1/sweep             evaluate a scenario grid   -> NDJSON stream
//	POST   /v1/jobs              submit a sweep as a job    -> 202 + job status
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status + progress + aggregated stats
//	GET    /v1/jobs/{id}/results completed job results      -> NDJSON,
//	                             byte-identical to /v1/sweep on the same spec
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	POST   /v1/sessions          open a streaming scheduling session
//	GET    /v1/sessions/{id}     current session state (no step)
//	POST   /v1/sessions/{id}/step feed one draw event -> per-step telemetry
//	GET    /v1/sessions/{id}/events telemetry stream (server-sent events)
//	DELETE /v1/sessions/{id}     close a session
//
// Jobs run on a bounded priority worker pool and dedup against a
// content-addressed result store keyed by the request digest: resubmitting
// an identical sweep is served from the store without re-evaluating a cell,
// and with -store the results survive restarts.
//
// Sessions hold a persistent discrete KiBaM system and schedule draw
// events online as they arrive — the load need not be known up front. The
// session table is bounded (-max-sessions) and idle sessions are evicted
// (-session-ttl). SIGINT/SIGTERM drain gracefully: open sessions close
// (ending their event streams), in-flight requests and running jobs finish
// (up to -drain), then the store is closed.
//
// The store hardens against mid-file corruption (per-line checksums;
// corrupt lines are quarantined on replay, not served), transient write
// errors (bounded retries with backoff), and persistent ones (a write
// circuit breaker: the store goes degraded read-only — still serving and
// still evaluating, just not caching — until a cooldown probe succeeds;
// /readyz reports it). -store-sync picks the crash-safety tradeoff:
//
//	never     fastest; the OS decides when results reach disk, a crash can
//	          lose anything since the last natural flush
//	interval  fsync at most once per -store-sync-interval (default 1s); a
//	          crash loses at most that window (the default)
//	always    fsync before every put is acknowledged; nothing is lost short
//	          of device failure, at a per-put latency cost
//
// Usage:
//
//	batserve [-addr :8080] [-concurrency N] [-cache N]
//	         [-job-workers N] [-queue N] [-store results.ndjson]
//	         [-store-sync interval] [-store-sync-interval 1s]
//	         [-max-sessions N] [-session-ttl 5m] [-drain 30s]
//	         [-request-timeout 2m] [-max-inflight N]
//	         [-debug-addr :6060] [-log-level info]
//
// Example:
//
//	curl -s localhost:8080/v1/jobs -d '{"scenario": {
//	  "banks":   [{"battery": {"preset": "B1"}, "count": 2}],
//	  "loads":   [{"paper": "ILs alt"}],
//	  "solvers": ["bestof", "optimal"]
//	}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"batsched"
	"batsched/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", 0, "max concurrently executing requests (0 = number of CPUs)")
	cacheSize := flag.Int("cache", 0, "compiled-artifact cache entries (0 = default)")
	jobWorkers := flag.Int("job-workers", 0, "jobs executing concurrently (0 = number of CPUs)")
	queueDepth := flag.Int("queue", 0, "max queued jobs (0 = default)")
	retainJobs := flag.Int("retain-jobs", 0, "finished jobs kept in the table (0 = default; results stay in the store)")
	storePath := flag.String("store", "", "append-only result-store file (empty = in-memory only)")
	storeSync := flag.String("store-sync", "interval", "store fsync policy: never, interval, or always (crash-safety vs latency)")
	storeSyncInterval := flag.Duration("store-sync-interval", 0, "max unsynced window under -store-sync interval (0 = default 1s)")
	maxSessions := flag.Int("max-sessions", 0, "max concurrently open streaming sessions (0 = default)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle streaming sessions are evicted after this long (0 = default)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	requestTimeout := flag.Duration("request-timeout", 2*time.Minute, "per-request deadline on synchronous evaluation endpoints (0 = none)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing synchronous evaluations before shedding with 429 (0 = unlimited)")
	debugAddr := flag.String("debug-addr", "", "debug listen address for pprof, /debug/traces, and runtime metrics (empty = disabled)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "batserve: -log-level: %v\n", err)
		os.Exit(1)
	}
	// The observability kit is built before any layer so its histograms can
	// be threaded into the layer options: store append, job queue wait and
	// run time, per-cell sweep evaluation, and per-policy session stepping
	// all land in registry-owned bucket families on /metrics.
	kit := newObsKit()
	kit.logger = obs.NewLogger(os.Stderr, level)
	logger := kit.logger

	syncPolicy, err := batsched.ParseStoreSyncPolicy(*storeSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "batserve: -store-sync: %v\n", err)
		os.Exit(1)
	}
	st, err := batsched.OpenResultStoreWith(batsched.StoreOptions{
		Path:          *storePath,
		Sync:          syncPolicy,
		SyncInterval:  *storeSyncInterval,
		AppendLatency: kit.appendLatency,
	})
	if err != nil {
		logger.Error("store open failed", "error", err)
		os.Exit(1)
	}
	// The service and the job manager share one store: synchronous sweeps
	// and jobs then reuse each other's cells, and an overlapping submission
	// on either path evaluates only what neither has produced.
	svc := batsched.NewEvalService(batsched.EvalOptions{
		MaxConcurrent: *concurrency,
		CacheEntries:  *cacheSize,
		Store:         st,
		CellLatency:   kit.cellLatency,
	})
	mgr := batsched.NewJobManager(svc, st, batsched.JobOptions{
		Workers:    *jobWorkers,
		QueueDepth: *queueDepth,
		RetainJobs: *retainJobs,
		QueueWait:  kit.queueWait,
		RunLatency: kit.runLatency,
	})
	// Sessions compile bank artifacts through the service so streaming
	// sessions and sweeps on the same bank share one cached artifact (and
	// its pooled systems).
	sess := batsched.NewSessionManager(batsched.SessionOptions{
		MaxSessions: *maxSessions,
		IdleTTL:     *sessionTTL,
		CompileBank: svc.CompileBank,
		StepLatency: kit.stepLatency,
	})
	a := &app{
		svc: svc, jobs: mgr, sessions: sess, st: st, start: time.Now(),
		requestTimeout: *requestTimeout,
		maxInflight:    int64(*maxInflight),
		obs:            kit,
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newHandler(a),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	// The optional debug listener carries the heavier diagnostics — pprof,
	// the span ring, and runtime-metrics gauges folded into the exposition —
	// on a separate address an operator can keep off the public interface.
	if *debugAddr != "" {
		obs.RegisterRuntimeMetrics(kit.reg)
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(kit.reg, kit.tracer),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		defer dbg.Close()
		logger.Info("debug listening", "addr", *debugAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case sig := <-stop:
		logger.Info("draining", "signal", sig.String(), "timeout", drain.String())
	}

	// Flip readiness first: /readyz answers 503 (and the sync endpoints
	// shed) for the whole drain, so a load balancer stops routing here
	// while in-flight work finishes.
	a.draining.Store(true)
	if err := drainAndClose(srv, sess, mgr, st, *drain); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// The deadline path is still clean: remaining jobs were cancelled
			// and the store closed; report it without failing the exit.
			logger.Warn("drain timeout, running jobs cancelled")
			return
		}
		logger.Error("shutdown failed", "error", err)
		os.Exit(1)
	}
}

// drainAndClose shuts the server down gracefully within timeout: close
// every streaming session (their final "closed" events end the otherwise
// never-ending SSE requests — this MUST precede the HTTP shutdown, which
// waits for in-flight requests), stop accepting connections and wait for
// in-flight HTTP requests, drain the job manager (running jobs finish;
// past the deadline they are cancelled), then close the result store so
// every appended record is synced. Split from main so the drain path is
// testable without signals.
func drainAndClose(srv *http.Server, sess *batsched.SessionManager, mgr *batsched.JobManager, st *batsched.ResultStore, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var firstErr error
	if err := sess.Shutdown(ctx); err != nil {
		firstErr = fmt.Errorf("sessions drain: %w", err)
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) && firstErr == nil {
		firstErr = fmt.Errorf("http shutdown: %w", err)
	}
	if err := mgr.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("jobs drain: %w", err)
	}
	// Close the store last: a drained-on-deadline job may append its entry
	// right up to the manager shutdown returning.
	if err := st.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
