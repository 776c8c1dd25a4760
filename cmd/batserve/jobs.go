package main

import (
	"errors"
	"net/http"

	"batsched"
)

// handleJobSubmit accepts a sweep for asynchronous evaluation. A store hit
// answers 200 with the already-done job; a fresh submission answers 202
// Accepted. Both carry a Location header for polling.
func (a *app) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req batsched.JobRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// SubmitContext carries the request's trace link into the job, so the
	// queued run continues this trace and the status reports its trace_id.
	st, err := a.jobs.SubmitContext(r.Context(), req)
	if err != nil {
		writeError(w, jobStatusFor(err), err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	code := http.StatusAccepted
	if st.FromStore {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handleJobList returns every job in submission order.
func (a *app) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := a.jobs.List()
	if list == nil {
		list = []batsched.JobStatus{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

// handleJobGet reports one job's status, progress, and aggregated search
// stats.
func (a *app) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := a.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobResults streams a done job's results as NDJSON — byte-identical
// to what the synchronous sweep endpoint produces for the same request.
func (a *app) handleJobResults(w http.ResponseWriter, r *http.Request) {
	lines, err := a.jobs.Results(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// The same batched writer and deadline rule as the sweep stream.
	lw := newLineWriter(w)
	defer lw.close()
	for _, line := range lines {
		if lw.writeLine(line) != nil {
			return
		}
	}
}

// handleJobCancel cancels a queued or running job.
func (a *app) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := a.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics serves the operational counters as a plain-text exposition
// (stdlib only, prometheus-compatible line format). The legacy fprintf body
// now lives in legacyMetrics (obs.go), registered as a registry collector,
// so its lines come out byte-identical and first — followed by the
// registry's native histogram families (request, store-append, job
// queue/run, sweep-cell, and per-policy step latency buckets).
func (a *app) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = a.obs.reg.Expose(w)
}

// jobStatusFor maps job-layer errors to HTTP statuses.
func jobStatusFor(err error) int {
	var invalid *batsched.InvalidRequestError
	switch {
	case errors.As(err, &invalid):
		return http.StatusBadRequest
	case errors.Is(err, batsched.ErrJobNotFound):
		return http.StatusNotFound
	case errors.Is(err, batsched.ErrJobQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, batsched.ErrJobsShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, batsched.ErrJobNotDone), errors.Is(err, batsched.ErrJobFinished):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}
