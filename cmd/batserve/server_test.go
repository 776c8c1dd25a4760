package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"batsched"
)

// testServer bundles an httptest instance with its backing state so tests
// can reach past HTTP into the service, manager, store, and app.
type testServer struct {
	*httptest.Server
	app  *app
	svc  *batsched.EvalService
	mgr  *batsched.JobManager
	sess *batsched.SessionManager
	st   *batsched.ResultStore
}

func newTestServer(t *testing.T) *testServer { return newTestServerWithStore(t, "") }

func newTestServerWithStore(t *testing.T, storePath string) *testServer {
	t.Helper()
	st, err := batsched.OpenResultStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	return newTestServerOn(t, st, nil)
}

// newTestServerOn stands a server up on a caller-built store; tune (may be
// nil) adjusts the app before the listener starts.
func newTestServerOn(t *testing.T, st *batsched.ResultStore, tune func(*app)) *testServer {
	t.Helper()
	// Mirror main.go: the observability kit is built first so its
	// histograms thread into the layer options, and the service and the
	// job manager share the store, so sync sweeps and jobs reuse each
	// other's cells.
	kit := newObsKit()
	svc := batsched.NewEvalService(batsched.EvalOptions{Store: st, CellLatency: kit.cellLatency})
	mgr := batsched.NewJobManager(svc, st, batsched.JobOptions{
		QueueWait: kit.queueWait, RunLatency: kit.runLatency,
	})
	sess := batsched.NewSessionManager(batsched.SessionOptions{
		CompileBank: svc.CompileBank, StepLatency: kit.stepLatency,
	})
	a := &app{svc: svc, jobs: mgr, sessions: sess, st: st, start: time.Now(), obs: kit}
	if tune != nil {
		tune(a)
	}
	ts := httptest.NewServer(newHandler(a))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sess.Shutdown(ctx)
		mgr.Shutdown(ctx)
		st.Close()
	})
	return &testServer{Server: ts, app: a, svc: svc, mgr: mgr, sess: sess, st: st}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

const runBody = `{
	"bank":   {"battery": {"preset": "B1"}, "count": 2},
	"load":   {"paper": "ILs alt"},
	"solver": "bestof"
}`

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Status        string `json:"status"`
		UptimeSeconds *int64 `json:"uptime_seconds"`
		Build         string `json:"build"`
		QueueDepth    *int   `json:"job_queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Fatalf("status %q", body.Status)
	}
	// The satellite fields: uptime, build info, and queue depth must be
	// present (zero is fine, absent is not).
	if body.UptimeSeconds == nil || *body.UptimeSeconds < 0 {
		t.Fatal("healthz misses uptime_seconds")
	}
	if body.Build == "" {
		t.Fatal("healthz misses build info")
	}
	if body.QueueDepth == nil {
		t.Fatal("healthz misses job_queue_depth")
	}
}

func TestPolicies(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Policies []struct {
			Name    string   `json:"name"`
			Aliases []string `json:"aliases"`
			Doc     string   `json:"doc"`
		} `json:"policies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range body.Policies {
		names[p.Name] = true
		if p.Doc == "" {
			t.Errorf("policy %q has no doc", p.Name)
		}
	}
	// Every scheme the root package exports must be name-addressable here.
	for _, want := range []string{
		"sequential", "roundrobin", "bestof", "lookahead",
		"optimal", "optimal-ta", "analytic", "montecarlo",
	} {
		if !names[want] {
			t.Errorf("/v1/policies misses %q (have %v)", want, names)
		}
	}
	if got := len(body.Policies); got != len(batsched.Solvers()) {
		t.Errorf("listed %d policies, registry has %d", got, len(batsched.Solvers()))
	}
}

func TestRun(t *testing.T) {
	ts := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/run", runBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var res batsched.EvalResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.LifetimeMin < 16.27 || res.LifetimeMin > 16.29 {
		t.Fatalf("lifetime %.2f, want ~16.28 (Table 5)", res.LifetimeMin)
	}
	if res.Bank != "2xB1" || res.Load != "ILs alt" || res.Solver != "best-of-two" {
		t.Fatalf("labels: %+v", res)
	}
}

func TestRunOptimalReportsSearchStats(t *testing.T) {
	ts := newTestServer(t)
	body := `{
		"bank":   {"battery": {"preset": "B1"}, "count": 2},
		"load":   {"paper": "ILs alt"},
		"solver": "optimal"
	}`
	resp, data := postJSON(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res batsched.EvalResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.LifetimeMin < 16.89 || res.LifetimeMin > 16.91 {
		t.Fatalf("optimal lifetime %.2f, want 16.90 (Table 5)", res.LifetimeMin)
	}
	if res.Stats == nil || res.Stats.States == 0 {
		t.Fatalf("optimal run carries no search stats: %s", data)
	}
	// The wire field must actually serialize (it is how perf is observed).
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["stats"]; !ok {
		t.Fatalf("no stats field on the wire: %s", data)
	}
}

func TestRunParameterisedSolver(t *testing.T) {
	ts := newTestServer(t)
	body := `{
		"bank":   {"battery": {"preset": "B1"}, "count": 2},
		"load":   {"paper": "ILs alt"},
		"solver": {"lookahead": {"horizon": 5}}
	}`
	resp, data := postJSON(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res batsched.EvalResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Solver != "lookahead-5min" || res.LifetimeMin <= 0 {
		t.Fatalf("lookahead run: %+v", res)
	}
}

func TestRunBadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := map[string]string{
		"not json":         `{`,
		"unknown field":    `{"bank":{},"load":{},"solver":"bestof","frob":1}`,
		"unknown solver":   `{"bank":{"battery":{"preset":"B1"}},"load":{"paper":"ILs alt"},"solver":"greedy"}`,
		"unknown preset":   `{"bank":{"battery":{"preset":"B9"}},"load":{"paper":"ILs alt"},"solver":"bestof"}`,
		"17xB1 optimal":    `{"bank":{"battery":{"preset":"B1"},"count":17},"load":{"paper":"ILs alt"},"solver":"optimal"}`,
		"negative horizon": `{"bank":{"battery":{"preset":"B1"}},"load":{"paper":"ILs alt","horizon_min":-5},"solver":"bestof"}`,
	}
	for name, body := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, data)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error payload %s", name, data)
		}
	}
}

func TestRunSolverFailureIs422(t *testing.T) {
	ts := newTestServer(t)
	body := `{
		"bank":   {"battery": {"preset": "B1"}, "count": 2},
		"load":   {"paper": "ILs alt"},
		"solver": {"optimal-ta": {"budget": 1}}
	}`
	resp, data := postJSON(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, data)
	}
	var res batsched.EvalResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Error, "budget") {
		t.Fatalf("cell error %q", res.Error)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status %d, want 405", resp.StatusCode)
	}
}

const sweepBody = `{
	"scenario": {
		"banks":   [{"battery": {"preset": "B1"}, "count": 2}],
		"loads":   [{"paper": "CL alt"}, {"paper": "ILs alt"}],
		"solvers": ["sequential", "bestof", "optimal"]
	}
}`

func TestSweepNDJSON(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	var results []batsched.EvalResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r batsched.EvalResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d lines, want 6", len(results))
	}
	// Deterministic nested order and Table 5 values.
	wantOrder := []string{
		"CL alt/sequential", "CL alt/best-of-two", "CL alt/optimal",
		"ILs alt/sequential", "ILs alt/best-of-two", "ILs alt/optimal",
	}
	for i, r := range results {
		if got := r.Load + "/" + r.Solver; got != wantOrder[i] {
			t.Errorf("line %d = %q, want %q", i, got, wantOrder[i])
		}
		if r.Error != "" || r.LifetimeMin <= 0 {
			t.Errorf("line %d: %+v", i, r)
		}
	}
	if lt := results[3].LifetimeMin; fmt.Sprintf("%.2f", lt) != "12.38" {
		t.Errorf("ILs alt sequential %.2f, want 12.38 (Table 5)", lt)
	}
	if lt := results[5].LifetimeMin; fmt.Sprintf("%.2f", lt) != "16.90" {
		t.Errorf("ILs alt optimal %.2f, want 16.90 (Table 5)", lt)
	}
}

// TestSweepMatchesLibraryBytes is the issue's acceptance check: the same
// scenario JSON produces byte-identical lifetimes via the library and via
// POST /v1/sweep.
func TestSweepMatchesLibraryBytes(t *testing.T) {
	const scenarioJSON = `{
		"banks":   [{"battery": {"preset": "B1"}, "count": 2}],
		"loads":   [{"paper": "ILs alt"}],
		"solvers": ["sequential", "bestof"]
	}`
	sc, err := batsched.ParseScenario([]byte(scenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	library, err := batsched.RunSweep(sp, batsched.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/sweep", `{"scenario":`+scenarioJSON+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != len(library) {
		t.Fatalf("%d lines vs %d library results", len(lines), len(library))
	}
	for i, line := range lines {
		var r batsched.EvalResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if wire := fmt.Sprintf("%v", r.LifetimeMin); wire != fmt.Sprintf("%v", library[i].Lifetime) {
			t.Errorf("cell %d: HTTP %s != library %v", i, wire, library[i].Lifetime)
		}
	}
}

func TestSweepBadScenario(t *testing.T) {
	ts := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/sweep",
		`{"scenario":{"banks":[{"battery":{"preset":"B1"}}],"loads":[{"paper":"ILs alt"}],"solvers":["greedy"]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	if !bytes.Contains(data, []byte("unknown solver")) {
		t.Fatalf("error payload %s", data)
	}
}

// TestConcurrentClientsShareCompiledArtifact drives many concurrent HTTP
// clients at the same cell and asserts the service evaluated it exactly
// once: one client compiles and evaluates the cell, and the rest are
// served its stored line from the cell store or the in-flight table.
func TestConcurrentClientsShareCompiledArtifact(t *testing.T) {
	ts := newTestServer(t)
	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(runBody))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var res batsched.EvalResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				errs <- err
				return
			}
			if res.LifetimeMin < 16.27 || res.LifetimeMin > 16.29 {
				errs <- fmt.Errorf("lifetime %v", res.LifetimeMin)
				return
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := ts.svc.Stats()
	if st.CellsEvaluated != 1 {
		t.Fatalf("evaluated %d cells for %d identical clients, want 1", st.CellsEvaluated, clients)
	}
	if st.CellHits != clients-1 {
		t.Fatalf("cell hits %d, want %d", st.CellHits, clients-1)
	}
}

// TestRunDiverseBankRejected: past 8 batteries the optimal search requires
// interchangeable batteries (canonicalization is what makes 9..12 feasible);
// an all-distinct bank must be rejected at the spec layer with a 400, never
// reach the search.
func TestRunDiverseBankRejected(t *testing.T) {
	ts := newTestServer(t)
	body := `{"bank":{"batteries":[` +
		`{"preset":"B1","capacity":5.5},{"preset":"B1","capacity":6.5},{"preset":"B1","capacity":7.5},` +
		`{"preset":"B1","capacity":8.5},{"preset":"B1","capacity":9.5},{"preset":"B1","capacity":10.5},` +
		`{"preset":"B1","capacity":11.5},{"preset":"B1","capacity":12.5},{"preset":"B1","capacity":13.5}]},` +
		`"load":{"paper":"ILs alt"},"solver":"optimal"}`
	resp, data := postJSON(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
}
