package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"batsched"
	"batsched/internal/core"
	"batsched/internal/sched"
)

const jobScenario = `{
	"banks":   [{"battery": {"preset": "B1"}, "count": 2}],
	"loads":   [{"paper": "CL alt"}, {"paper": "ILs alt"}],
	"solvers": ["sequential", "bestof", "optimal"]
}`

func submitJob(t *testing.T, ts *testServer, body string) batsched.JobStatus {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("submit Location %q", loc)
	}
	var st batsched.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollJobDone(t *testing.T, ts *testServer, id string) batsched.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := getBody(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, data)
		}
		var st batsched.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return batsched.JobStatus{}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func metricValue(t *testing.T, ts *testServer, name string) int64 {
	t.Helper()
	resp, data := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s missing from:\n%s", name, data)
	return 0
}

// TestJobEquivalenceAndDedup is the issue's acceptance test: a sweep
// submitted as a job yields byte-identical NDJSON to the synchronous
// endpoint, and an identical resubmission is a store hit with zero cases
// re-evaluated, asserted via /metrics.
func TestJobEquivalenceAndDedup(t *testing.T) {
	ts := newTestServer(t)

	// The job runs first (cold store), so it evaluates every cell and
	// carries the aggregated search stats.
	sub := submitJob(t, ts, `{"scenario":`+jobScenario+`}`)
	final := pollJobDone(t, ts, sub.ID)
	if final.State != batsched.JobDone || final.Error != "" {
		t.Fatalf("job finished %+v", final)
	}
	if final.TotalCases != 6 || final.DoneCases != 6 {
		t.Fatalf("progress %d/%d, want 6/6", final.DoneCases, final.TotalCases)
	}
	if final.CachedCases != 0 {
		t.Fatalf("cold job reports %d cached cases", final.CachedCases)
	}
	if final.Stats == nil || final.Stats.States == 0 {
		t.Fatalf("job with optimal cells carries no aggregated stats: %+v", final)
	}

	resp, gotBytes := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/results")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp.StatusCode, gotBytes)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}

	// The synchronous sweep of the same scenario is now served from the
	// shared cell store — and must still be byte-identical to the job's
	// evaluated output.
	resp, wantBytes := postJSON(t, ts.URL+"/v1/sweep", `{"scenario":`+jobScenario+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, wantBytes)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("job results differ from synchronous sweep:\njob:\n%s\nsweep:\n%s", gotBytes, wantBytes)
	}
	if evals := metricValue(t, ts, "batserve_sweep_cells_evaluated_total"); evals != 6 {
		t.Fatalf("cache-served sync sweep re-evaluated cells: %d evaluations, want 6", evals)
	}
	// The optimal cells' search work shows up in the cumulative search
	// counters — and a cache-served sweep must not re-count it.
	statesAfterJob := metricValue(t, ts, "batserve_search_states_total")
	if statesAfterJob == 0 {
		t.Fatal("cold job with optimal cells left batserve_search_states_total at 0")
	}

	// Identical resubmission: served from the store, zero extra cases, one
	// cell hit per cell.
	casesBefore := metricValue(t, ts, "batserve_job_cases_evaluated_total")
	hitsBefore := metricValue(t, ts, "batserve_store_cell_hits_total")
	resp, data := postJSON(t, ts.URL+"/v1/jobs", `{"scenario":`+jobScenario+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d (want 200 for a store hit): %s", resp.StatusCode, data)
	}
	var re batsched.JobStatus
	if err := json.Unmarshal(data, &re); err != nil {
		t.Fatal(err)
	}
	if !re.FromStore || re.State != batsched.JobDone {
		t.Fatalf("resubmission not from store: %+v", re)
	}
	if re.Digest != final.Digest {
		t.Fatalf("digest drifted: %s vs %s", re.Digest, final.Digest)
	}
	if after := metricValue(t, ts, "batserve_job_cases_evaluated_total"); after != casesBefore {
		t.Fatalf("resubmission evaluated %d extra cases", after-casesBefore)
	}
	if hits := metricValue(t, ts, "batserve_store_cell_hits_total") - hitsBefore; hits != 6 {
		t.Fatalf("resubmission counted %d cell hits, want 6", hits)
	}
	_, reBytes := getBody(t, ts.URL+"/v1/jobs/"+re.ID+"/results")
	if !bytes.Equal(reBytes, wantBytes) {
		t.Fatal("store-served results differ from synchronous sweep")
	}
	if states := metricValue(t, ts, "batserve_search_states_total"); states != statesAfterJob {
		t.Fatalf("store-served traffic re-counted search work: %d states, want %d", states, statesAfterJob)
	}
}

// TestJobResultsSurviveRestart: with the file backend, a fresh server on
// the same store path serves the results without re-running the sweep.
func TestJobResultsSurviveRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.ndjson")

	ts1 := newTestServerWithStore(t, path)
	sub := submitJob(t, ts1, `{"scenario":`+jobScenario+`}`)
	pollJobDone(t, ts1, sub.ID)
	_, wantBytes := getBody(t, ts1.URL+"/v1/jobs/"+sub.ID+"/results")
	ts1.Close()
	if err := ts1.mgr.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if err := ts1.st.Close(); err != nil {
		t.Fatal(err)
	}

	ts2 := newTestServerWithStore(t, path)
	resp, data := postJSON(t, ts2.URL+"/v1/jobs", `{"scenario":`+jobScenario+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart submit status %d: %s", resp.StatusCode, data)
	}
	var re batsched.JobStatus
	if err := json.Unmarshal(data, &re); err != nil {
		t.Fatal(err)
	}
	if !re.FromStore {
		t.Fatalf("restarted server re-ran the sweep: %+v", re)
	}
	_, gotBytes := getBody(t, ts2.URL+"/v1/jobs/"+re.ID+"/results")
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("results drifted across restart")
	}
	if evaluated := metricValue(t, ts2, "batserve_job_cases_evaluated_total"); evaluated != 0 {
		t.Fatalf("restarted server evaluated %d cases", evaluated)
	}
}

func TestJobList(t *testing.T) {
	ts := newTestServer(t)
	resp, data := getBody(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"jobs":[]`)) {
		t.Fatalf("empty list: %d %s", resp.StatusCode, data)
	}
	sub := submitJob(t, ts, `{"scenario":`+jobScenario+`}`)
	pollJobDone(t, ts, sub.ID)
	_, data = getBody(t, ts.URL+"/v1/jobs")
	var list struct {
		Jobs []batsched.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Fatalf("list %s", data)
	}
}

func TestJobErrors(t *testing.T) {
	ts := newTestServer(t)

	// Unknown ids → 404 on every per-job route.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/job-404"},
		{"GET", "/v1/jobs/job-404/results"},
		{"DELETE", "/v1/jobs/job-404"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}

	// Invalid scenario → 400.
	resp, data := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":{"banks":[{"battery":{"preset":"B1"}}],"loads":[{"paper":"ILs alt"}],"solvers":["greedy"]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad scenario status %d: %s", resp.StatusCode, data)
	}

	// Results of a finished-but-cancelled job → 409 (after cancel below);
	// here: cancelling a done job → 409.
	sub := submitJob(t, ts, `{"scenario":`+jobScenario+`}`)
	pollJobDone(t, ts, sub.ID)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of done job: status %d, want 409", resp.StatusCode)
	}
}

// The test-only "test-gate-http" solver lets shutdown/cancel tests hold a
// cell mid-flight: each run signals entered, then blocks on the gate.
var (
	httpGateRegister sync.Once
	httpGateMu       sync.Mutex
	httpGate         chan struct{}
	httpEntered      chan struct{}
)

func setHTTPGate(gate, entered chan struct{}) {
	httpGateMu.Lock()
	httpGate, httpEntered = gate, entered
	httpGateMu.Unlock()
}

func registerHTTPGateSolver() {
	httpGateRegister.Do(func() {
		batsched.RegisterSolver(batsched.SolverBuilder{
			Name: "test-gate-http",
			Doc:  "test-only solver blocking on a gate channel",
			Build: func(json.RawMessage) (batsched.SweepPolicy, error) {
				return batsched.SweepPolicy{
					Name: "test-gate-http",
					Run: func(c *core.Compiled) (float64, int, error) {
						httpGateMu.Lock()
						gate, entered := httpGate, httpEntered
						httpGateMu.Unlock()
						if entered != nil {
							entered <- struct{}{}
						}
						if gate != nil {
							<-gate
						}
						lt, err := c.PolicyLifetime(sched.BestAvailable())
						return lt, 0, err
					},
				}, nil
			},
		})
	})
}

const gatedRunBody = `{
	"bank":   {"battery": {"preset": "B1"}, "count": 2},
	"load":   {"paper": "ILs alt"},
	"solver": "test-gate-http"
}`

// TestJobCancelRunningViaHTTP: DELETE on a running job cancels it.
func TestJobCancelRunningViaHTTP(t *testing.T) {
	registerHTTPGateSolver()
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	setHTTPGate(gate, entered)
	defer setHTTPGate(nil, nil)

	ts := newTestServer(t)
	sub := submitJob(t, ts, `{"scenario": {
		"banks":   [{"battery": {"preset": "B1"}, "count": 2}],
		"loads":   [{"paper": "ILs alt"}],
		"solvers": ["test-gate-http"]
	}}`)
	<-entered // the job's cell is in flight

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	close(gate)
	final := pollJobDone(t, ts, sub.ID)
	if final.State != batsched.JobCancelled {
		t.Fatalf("cancelled job finished as %s", final.State)
	}
	// Results of a cancelled job are a 409.
	resp, data := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/results")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("results of cancelled job: %d %s", resp.StatusCode, data)
	}
}

// TestGracefulShutdownDrains is the satellite's test: during drainAndClose,
// an in-flight synchronous request and a running job both finish, the
// listener stops accepting, and the store is closed cleanly.
func TestGracefulShutdownDrains(t *testing.T) {
	registerHTTPGateSolver()
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	setHTTPGate(gate, entered)
	defer setHTTPGate(nil, nil)

	storePath := filepath.Join(t.TempDir(), "results.ndjson")
	st, err := batsched.OpenResultStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	svc := batsched.NewEvalService(batsched.EvalOptions{MaxConcurrent: 8, Store: st})
	mgr := batsched.NewJobManager(svc, st, batsched.JobOptions{Workers: 2})
	sess := batsched.NewSessionManager(batsched.SessionOptions{CompileBank: svc.CompileBank})
	srv := &http.Server{Handler: newHandler(&app{svc: svc, jobs: mgr, sessions: sess, start: time.Now()})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// One synchronous request and one job, both held mid-cell.
	syncDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(gatedRunBody))
		if err != nil {
			syncDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			syncDone <- fmt.Errorf("sync run status %d", resp.StatusCode)
			return
		}
		syncDone <- nil
	}()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"scenario": {
		"banks":   [{"battery": {"preset": "B1"}, "count": 2}],
		"loads":   [{"name": "shutdown-load", "paper": "ILs alt", "horizon_min": 80}],
		"solvers": ["test-gate-http"]
	}}`))
	if err != nil {
		t.Fatal(err)
	}
	var jobSt batsched.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobSt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-entered
	<-entered // both the sync cell and the job cell are in flight

	drainDone := make(chan error, 1)
	go func() { drainDone <- drainAndClose(srv, sess, mgr, st, 30*time.Second) }()
	// Give the drain a moment to begin, then release the held cells.
	time.Sleep(50 * time.Millisecond)
	close(gate)

	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-syncDone; err != nil {
		t.Fatalf("in-flight sync request: %v", err)
	}
	final, err := mgr.Get(jobSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != batsched.JobDone {
		t.Fatalf("running job drained to %s, want done", final.State)
	}
	// The listener is closed: new requests must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
	// The store was synced and closed: a reopen sees the cells of the
	// drained sync request and job.
	re, err := batsched.OpenResultStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if c := re.Counters(); c.Entries != 2 {
		t.Fatalf("store entries after drain %d, want 2", c.Entries)
	}
}
