package main

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"batsched"
	"batsched/internal/faults"
	"batsched/internal/obs"
	"batsched/internal/store"
)

// legacyMetricNames is the golden list: every metric name the fprintf-based
// /metrics handler exposed before the registry existed. The exposition must
// keep emitting each one — same name, same label rendering — or deployed
// scrape configs silently lose data.
var legacyMetricNames = []string{
	`batserve_jobs{state="queued"}`,
	`batserve_jobs{state="running"}`,
	`batserve_jobs{state="done"}`,
	`batserve_jobs{state="failed"}`,
	`batserve_jobs{state="cancelled"}`,
	"batserve_job_queue_depth",
	"batserve_job_queue_bound",
	"batserve_job_cases_evaluated_total",
	"batserve_job_cases_from_cache_total",
	"batserve_workers_busy",
	"batserve_workers_total",
	"batserve_store_entries",
	"batserve_store_cell_hits_total",
	"batserve_store_cell_misses_total",
	"batserve_store_quarantined_total",
	"batserve_store_append_errors_total",
	"batserve_store_append_retries_total",
	"batserve_store_dropped_puts_total",
	"batserve_store_sync_errors_total",
	"batserve_store_degraded",
	"batserve_job_retries_total",
	"batserve_job_panics_total",
	"batserve_requests_shed_total",
	"batserve_cache_compiles_total",
	"batserve_cache_hits_total",
	"batserve_sweep_cell_hits_total",
	"batserve_sweep_cells_evaluated_total",
	"batserve_store_errors_total",
	"batserve_search_states_total",
	"batserve_search_leaves_total",
	"batserve_search_memo_hits_total",
	"batserve_search_pruned_total",
	"batserve_search_lp_bounds_total",
	"batserve_search_lp_pruned_total",
	"batserve_search_steals_total",
	"batserve_search_shared_memo_hits_total",
	"batserve_sessions_open",
	"batserve_sessions_opened_total",
	"batserve_sessions_closed_total",
	"batserve_sessions_evicted_total",
	"batserve_session_steps_total",
	"batserve_session_events_dropped_total",
	"batserve_uptime_seconds",
}

// expositionLine matches one exposition sample: name, optional labels, and
// an integer or float value. Label values may contain braces and spaces
// (route patterns like "GET /v1/jobs/{id}"), so the label block is matched
// greedily up to the closing brace before the value.
var expositionLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (-?[0-9.eE+\-]+|\+Inf|NaN)$`)

// scrapeMetrics fetches /metrics and fails on anything but a parseable 200.
func scrapeMetrics(t *testing.T, ts *testServer) string {
	t.Helper()
	resp, data := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
	return string(data)
}

// TestMetricsGoldenNames pins the compatibility contract of the registry
// migration: every pre-registry metric name is still present, and the new
// histogram families joined them.
func TestMetricsGoldenNames(t *testing.T) {
	ts := newTestServer(t)
	// Touch the job path once so lifetime counters have moved and the
	// per-policy session families would show up if sessions had stepped.
	st := submitJob(t, ts, `{"scenario": `+jobScenario+`}`)
	pollJobDone(t, ts, st.ID)
	text := scrapeMetrics(t, ts)
	for _, name := range legacyMetricNames {
		if !strings.Contains(text, "\n"+name+" ") && !strings.HasPrefix(text, name+" ") {
			t.Errorf("legacy metric %s missing from exposition", name)
		}
	}
	// The histogram families the issue demands: at least five *_bucket
	// families, each with a cumulative +Inf bucket equal to its _count.
	families := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, "_bucket{"); i > 0 {
			families[line[:i]] = true
		}
	}
	for _, want := range []string{
		"batserve_store_append_seconds",
		"batserve_job_queue_wait_seconds",
		"batserve_job_run_seconds",
		"batserve_sweep_cell_eval_seconds",
		"batserve_session_policy_step_seconds",
		"batserve_http_request_seconds",
	} {
		if !families[want] {
			t.Errorf("histogram family %s has no buckets in exposition", want)
		}
	}
	if len(families) < 5 {
		t.Fatalf("want >= 5 bucket families, got %d: %v", len(families), families)
	}
	checkHistogramConsistency(t, text)
	// The job actually ran, so its latency histograms must have counted it.
	for _, name := range []string{"batserve_job_run_seconds_count", "batserve_sweep_cell_eval_seconds_count"} {
		if v := metricValue(t, ts, name); v == 0 {
			t.Errorf("%s = 0 after a completed job", name)
		}
	}
}

// checkHistogramConsistency verifies every bucket family in the text is
// cumulative (monotone non-decreasing in le) and ends with +Inf == _count.
func checkHistogramConsistency(t *testing.T, text string) {
	t.Helper()
	type state struct {
		last    uint64
		inf     uint64
		hasInf  bool
		samples int
	}
	fams := map[string]*state{}
	counts := map[string]uint64{}
	for _, line := range strings.Split(text, "\n") {
		// Label values may contain spaces (route patterns), so split on the
		// last space: series on the left, sample value on the right.
		cut := strings.LastIndex(line, " ")
		if cut < 0 {
			continue
		}
		series, value := line[:cut], line[cut+1:]
		if strings.Contains(series, "_bucket{") {
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			// Key on the full series (labels minus le) so labeled families
			// like the per-policy and per-route histograms check per series.
			key := stripLE(series)
			s := fams[key]
			if s == nil {
				s = &state{}
				fams[key] = s
			}
			if v < s.last {
				t.Errorf("non-monotone buckets in %q: %d after %d", line, v, s.last)
			}
			s.last = v
			s.samples++
			if strings.Contains(series, `le="+Inf"`) {
				s.inf, s.hasInf = v, true
			}
			continue
		}
		if strings.HasSuffix(series, "_count") || strings.Contains(series, "_count{") {
			if v, err := strconv.ParseUint(value, 10, 64); err == nil {
				counts[strings.Replace(series, "_count", "", 1)] = v
			}
		}
	}
	for key, s := range fams {
		if !s.hasInf {
			t.Errorf("series %q has no +Inf bucket", key)
			continue
		}
		if c, ok := counts[key]; ok && c != s.inf {
			t.Errorf("series %q: +Inf bucket %d != _count %d", key, s.inf, c)
		}
	}
}

// stripLE removes the le label from a bucket series name, yielding the
// name+labels key its _count line uses.
func stripLE(series string) string {
	i := strings.Index(series, "_bucket")
	name, labels := series[:i], series[i+len("_bucket"):]
	labels = strings.TrimPrefix(labels, "{")
	labels = strings.TrimSuffix(labels, "}")
	var kept []string
	for _, part := range strings.Split(labels, ",") {
		if part != "" && !strings.HasPrefix(part, "le=") {
			kept = append(kept, part)
		}
	}
	if len(kept) == 0 {
		return name
	}
	return name + "{" + strings.Join(kept, ",") + "}"
}

// TestJobTraceEndToEnd is the issue's tracing acceptance test: one job
// submission produces a retrievable trace spanning the HTTP handler, the
// queued run, the service sweep, the store lookup, and the per-cell work.
func TestJobTraceEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	st := submitJob(t, ts, `{"scenario": `+jobScenario+`}`)
	if st.TraceID == "" {
		t.Fatal("job status has no trace_id")
	}
	done := pollJobDone(t, ts, st.ID)
	if done.TraceID != st.TraceID {
		t.Fatalf("trace_id changed across polls: %q then %q", st.TraceID, done.TraceID)
	}
	resp, data := getBody(t, ts.URL+"/debug/traces?trace="+st.TraceID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("trace dump: %v", err)
	}
	if len(dump.Spans) < 4 {
		t.Fatalf("want >= 4 spans in the job trace, got %d: %s", len(dump.Spans), data)
	}
	names := map[string]bool{}
	for _, s := range dump.Spans {
		if s.Trace != st.TraceID {
			t.Fatalf("span %q leaked from trace %q into filter %q", s.Name, s.Trace, st.TraceID)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"http POST /v1/jobs", "jobs.run", "service.sweep", "store.lookup", "sweep.cell"} {
		if !names[want] {
			t.Errorf("span %q missing from job trace (have %v)", want, names)
		}
	}
}

// TestTraceNoSpanLeak pins the span-accounting invariant: after traffic
// quiesces, started == ended (Active is zero) — no handler or worker path
// forgets to End a span.
func TestTraceNoSpanLeak(t *testing.T) {
	ts := newTestServer(t)
	st := submitJob(t, ts, `{"scenario": `+jobScenario+`}`)
	pollJobDone(t, ts, st.ID)
	postJSON(t, ts.URL+"/v1/run", runBody)
	postJSON(t, ts.URL+"/v1/run", `{"bad":`) // 400 path
	resp, data := getBody(t, ts.URL+"/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	// The /debug/traces request itself is the only span possibly open.
	if dump.Active > 1 {
		t.Fatalf("span leak: %d spans still active after traffic quiesced", dump.Active)
	}
	if dump.Started == 0 {
		t.Fatal("tracer recorded no spans")
	}
}

// TestRequestIDHeader pins the request-id contract: every response carries
// X-Request-ID — generated when absent, echoed when supplied — and error
// payloads repeat it in JSON.
func TestRequestIDHeader(t *testing.T) {
	ts := newTestServer(t)

	resp, _ := getBody(t, ts.URL+"/healthz")
	if id := resp.Header.Get("X-Request-ID"); len(id) != 16 {
		t.Fatalf("generated X-Request-ID %q, want 16 hex chars", id)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "my-correlation-id")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "my-correlation-id" {
		t.Fatalf("echoed X-Request-ID %q, want my-correlation-id", got)
	}

	// Error payloads carry the id too, including guard rejections: a
	// draining server sheds with 503 before the handler runs, and the
	// rejection must still be correlatable.
	ts.app.draining.Store(true)
	resp3, data := postJSON(t, ts.URL+"/v1/run", runBody)
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", resp3.StatusCode)
	}
	if id := resp3.Header.Get("X-Request-ID"); id == "" {
		t.Fatal("503 rejection missing X-Request-ID")
	}
	var payload map[string]string
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload["request_id"] != resp3.Header.Get("X-Request-ID") {
		t.Fatalf("error payload request_id %q != header %q", payload["request_id"], resp3.Header.Get("X-Request-ID"))
	}
	ts.app.draining.Store(false)
}

// TestRequestIDOn429 covers the other guard rejection: load shedding keeps
// the request-id contract too.
func TestRequestIDOn429(t *testing.T) {
	st, err := batsched.OpenResultStore("")
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerOn(t, st, func(a *app) {
		a.maxInflight = 1
	})
	// Saturate the single slot from inside the guard: inflate the counter
	// directly so the next request sheds deterministically.
	ts.app.inflight.Add(1)
	defer ts.app.inflight.Add(-1)
	resp, data := postJSON(t, ts.URL+"/v1/run", runBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Fatal("429 rejection missing X-Request-ID")
	}
	var payload map[string]string
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload["request_id"] == "" {
		t.Fatal("429 payload missing request_id")
	}
}

// TestTraceparentPropagation pins W3C trace-context interop: an incoming
// traceparent is continued (same trace id out), and responses always carry
// a traceparent for downstream correlation.
func TestTraceparentPropagation(t *testing.T) {
	ts := newTestServer(t)
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", "00-"+trace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tp := resp.Header.Get("traceparent")
	if !strings.Contains(tp, trace) {
		t.Fatalf("response traceparent %q does not continue trace %s", tp, trace)
	}

	// Without an incoming header a fresh trace is minted, well-formed.
	resp2, _ := getBody(t, ts.URL+"/healthz")
	if tp := resp2.Header.Get("traceparent"); !regexp.MustCompile(`^00-[0-9a-f]{32}-[0-9a-f]{16}-01$`).MatchString(tp) {
		t.Fatalf("fresh traceparent %q malformed", tp)
	}
}

// TestChaosJobTracingNoSpanLeak runs a job against a store with injected
// transient write faults while tracing is armed: every span opened along
// the retried, fault-ridden path must still be closed once the job is
// terminal — error handling may not leak spans.
func TestChaosJobTracingNoSpanLeak(t *testing.T) {
	inj := faults.New(20260807,
		faults.Rule{Op: faults.OpStoreWrite, P: 0.5, Count: 8})
	st, err := store.OpenWith(store.Options{
		Path:     filepath.Join(t.TempDir(), "chaos.ndjson"),
		WrapFile: faults.WrapStore(inj),
		Sleep:    func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerOn(t, st, nil)
	job := submitJob(t, ts, `{"scenario": `+jobScenario+`}`)
	if job.TraceID == "" {
		t.Fatal("chaos job has no trace_id")
	}
	pollJobDone(t, ts, job.ID)
	tr := ts.app.obs.tracer
	if active := tr.Active(); active != 0 {
		t.Fatalf("span leak under injected store faults: %d spans still active", active)
	}
	if tr.Started() == 0 {
		t.Fatal("tracer recorded no spans for the chaos job")
	}
}
