package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"batsched"
)

const sessionBody = `{
	"bank":   {"battery": {"preset": "B1"}, "count": 2},
	"policy": "roundrobin"
}`

// openHTTPSession posts a session and decodes the created info.
func openHTTPSession(t *testing.T, base, body string) sessionInfo {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: status %d: %s", resp.StatusCode, data)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/sessions/") {
		t.Fatalf("Location = %q", loc)
	}
	var info sessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// stepHTTP posts one draw event and decodes the telemetry.
func stepHTTP(t *testing.T, base, id string, currentA, durationMin float64) batsched.SessionTelemetry {
	t.Helper()
	body := fmt.Sprintf(`{"current_a": %g, "duration_min": %g}`, currentA, durationMin)
	resp, data := postJSON(t, base+"/v1/sessions/"+id+"/step", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: status %d: %s", resp.StatusCode, data)
	}
	var tel batsched.SessionTelemetry
	if err := json.Unmarshal(data, &tel); err != nil {
		t.Fatal(err)
	}
	return tel
}

func TestSessionLifecycleHTTP(t *testing.T) {
	ts := newTestServer(t)
	info := openHTTPSession(t, ts.URL, sessionBody)
	if info.Policy != "roundrobin" || info.ID == "" {
		t.Fatalf("session info = %+v", info)
	}
	if info.State.Seq != 0 || len(info.State.Available) != 2 {
		t.Fatalf("initial state = %+v", info.State)
	}

	tel := stepHTTP(t, ts.URL, info.ID, 0.25, 2.0)
	if tel.Seq != 1 || tel.Chosen != 0 || tel.Minutes != 2.0 {
		t.Fatalf("first step = %+v", tel)
	}
	tel = stepHTTP(t, ts.URL, info.ID, 0.25, 2.0)
	if tel.Seq != 2 || tel.Chosen != 1 {
		t.Fatalf("second step = %+v", tel)
	}

	// GET reports the same state without stepping.
	resp, data := getBody(t, ts.URL+"/v1/sessions/"+info.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: status %d: %s", resp.StatusCode, data)
	}
	var got sessionInfo
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.State.Seq != 2 || got.State.Minutes != 4.0 {
		t.Fatalf("snapshot = %+v", got.State)
	}

	// Delete closes it; further use answers 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/sessions/"+info.ID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
}

func TestSessionHTTPErrors(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		name, url, body string
		status          int
	}{
		{"offline-only policy", "/v1/sessions", `{"bank": {"battery": {"preset": "B1"}, "count": 2}, "policy": "optimal"}`, http.StatusBadRequest},
		{"empty bank", "/v1/sessions", `{"policy": "seq"}`, http.StatusBadRequest},
		{"unknown field", "/v1/sessions", `{"bank": {"battery": {"preset": "B1"}}, "policy": "seq", "what": 1}`, http.StatusBadRequest},
		{"step unknown id", "/v1/sessions/nope/step", `{"current_a": 0.25, "duration_min": 1}`, http.StatusNotFound},
	} {
		resp, data := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
		}
	}

	// Events that do not discretize on the grid answer 400.
	info := openHTTPSession(t, ts.URL, sessionBody)
	resp, data := postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/step", `{"current_a": 0.25, "duration_min": 0}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-duration step: status %d (%s)", resp.StatusCode, data)
	}

	// An exhausted bank answers 410 Gone with the final lifetime.
	var tel batsched.SessionTelemetry
	for i := 0; i < 10000 && !tel.Dead; i++ {
		tel = stepHTTP(t, ts.URL, info.ID, 0.5, 5.0)
	}
	if !tel.Dead {
		t.Fatal("bank never died")
	}
	resp, data = postJSON(t, ts.URL+"/v1/sessions/"+info.ID+"/step", `{"current_a": 0.5, "duration_min": 5}`)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("step on dead bank: status %d (%s)", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "exhausted") {
		t.Fatalf("dead-bank error = %s", data)
	}
}

// TestSessionEventsSSE drives the full streaming loop: subscribe, step,
// receive one SSE event per step, delete, receive the closed event and EOF.
func TestSessionEventsSSE(t *testing.T) {
	ts := newTestServer(t)
	info := openHTTPSession(t, ts.URL, sessionBody)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	for i := 0; i < 3; i++ {
		stepHTTP(t, ts.URL, info.ID, 0.25, 1.0)
	}
	sc := bufio.NewScanner(resp.Body)
	var tel batsched.SessionTelemetry
	for i := 1; i <= 3; i++ {
		kind, data := readSSE(t, sc)
		if kind != "step" {
			t.Fatalf("event %d kind = %q", i, kind)
		}
		if err := json.Unmarshal([]byte(data), &tel); err != nil {
			t.Fatal(err)
		}
		if int(tel.Seq) != i {
			t.Fatalf("event %d seq = %d", i, tel.Seq)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	kind, data := readSSE(t, sc)
	if kind != "closed" || !strings.Contains(data, "closed") {
		t.Fatalf("final event = %q %q", kind, data)
	}
	if sc.Scan() {
		t.Fatalf("stream continued after closed: %q", sc.Text())
	}
}

// readSSE reads one "event:"/"data:" pair off the stream.
func readSSE(t *testing.T, sc *bufio.Scanner) (kind, data string) {
	t.Helper()
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && kind != "":
			return kind, data
		}
	}
	t.Fatalf("stream ended mid-event (kind=%q): %v", kind, sc.Err())
	return "", ""
}

// TestMetricsReportSessions checks the session counters in /metrics.
func TestMetricsReportSessions(t *testing.T) {
	ts := newTestServer(t)
	info := openHTTPSession(t, ts.URL, sessionBody)
	stepHTTP(t, ts.URL, info.ID, 0.25, 1.0)
	stepHTTP(t, ts.URL, info.ID, 0, 1.0)

	_, data := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"batserve_sessions_open 1\n",
		"batserve_sessions_opened_total 1\n",
		"batserve_session_steps_total 2\n",
		`batserve_session_policy_step_seconds_count{policy="roundrobin"} 2` + "\n",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestShutdownClosesOpenSSE: drainAndClose must terminate open event
// streams (via the session manager's shutdown) or the HTTP drain would
// wait on them forever.
func TestShutdownClosesOpenSSE(t *testing.T) {
	st, err := batsched.OpenResultStore("")
	if err != nil {
		t.Fatal(err)
	}
	svc := batsched.NewEvalService(batsched.EvalOptions{Store: st})
	mgr := batsched.NewJobManager(svc, st, batsched.JobOptions{})
	sess := batsched.NewSessionManager(batsched.SessionOptions{CompileBank: svc.CompileBank})
	srv := &http.Server{Handler: newHandler(&app{svc: svc, jobs: mgr, sessions: sess, start: time.Now()})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	info := openHTTPSession(t, base, sessionBody)
	resp, err := http.Get(base + "/v1/sessions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	drainDone := make(chan error, 1)
	go func() { drainDone <- drainAndClose(srv, sess, mgr, st, 30*time.Second) }()

	sc := bufio.NewScanner(resp.Body)
	kind, data := readSSE(t, sc)
	if kind != "closed" || !strings.Contains(data, "shutdown") {
		t.Fatalf("drain event = %q %q", kind, data)
	}
	if sc.Scan() {
		t.Fatalf("stream survived drain: %q", sc.Text())
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never finished")
	}
	// The manager refuses new sessions after the drain (the handler would
	// answer 503, but the listener is down too).
	sp, err := batsched.ParseSession([]byte(sessionBody))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Open(sp); err == nil || sessionStatusFor(err) != http.StatusServiceUnavailable {
		t.Fatalf("open after drain = %v", err)
	}
}

// TestSessionBoundHTTP: opens beyond the manager's bound answer 429.
func TestSessionBoundHTTP(t *testing.T) {
	st, err := batsched.OpenResultStore("")
	if err != nil {
		t.Fatal(err)
	}
	svc := batsched.NewEvalService(batsched.EvalOptions{Store: st})
	mgr := batsched.NewJobManager(svc, st, batsched.JobOptions{})
	sess := batsched.NewSessionManager(batsched.SessionOptions{MaxSessions: 1, CompileBank: svc.CompileBank})
	h := newHandler(&app{svc: svc, jobs: mgr, sessions: sess, start: time.Now()})
	srv := newLocalServer(t, h)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sess.Shutdown(ctx)
		mgr.Shutdown(ctx)
		st.Close()
	})
	openHTTPSession(t, srv, sessionBody)
	if resp, data := postJSON(t, srv+"/v1/sessions", sessionBody); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second open: status %d (%s)", resp.StatusCode, data)
	}
}

// newLocalServer serves h on a loopback listener closed with the test.
func newLocalServer(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}
