// The batched NDJSON writer: a line still arrives early when a later cell
// is slow, a stalled reader is still cut off by the write deadline, and a
// fast sweep is flushed in batches, not once per line.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batsched"
)

// sweep200Body is a 200-cell sweep shaped like the benchmark's: 2 banks ×
// the 10 paper loads × 2 solvers × 5 grids, on one worker.
var sweep200Body = func() string {
	loads := make([]string, 0, 10)
	for _, name := range []string{
		"CL 250", "CL 500", "CL alt", "ILs 250", "ILs 500", "ILs alt",
		"ILl 250", "ILl 500", "ILs r1", "ILs r2",
	} {
		loads = append(loads, fmt.Sprintf(`{"paper": %q}`, name))
	}
	return `{"scenario": {
		"banks":   [{"battery": {"preset": "B1"}, "count": 2}, {"battery": {"preset": "B2"}, "count": 1}],
		"loads":   [` + strings.Join(loads, ", ") + `],
		"solvers": ["sequential", "bestof"],
		"grids":   [{}, {"step_min": 0.02, "unit_amp_min": 0.02}, {"step_min": 0.025, "unit_amp_min": 0.025},
		            {"step_min": 0.05, "unit_amp_min": 0.05}, {"step_min": 0.1, "unit_amp_min": 0.1}]
	}, "workers": 1}`
}()

// A sweep whose second cell is still running has already delivered its
// first line: batching must not hold finished lines back behind a slow cell.
func TestSweepEarlyDelivery(t *testing.T) {
	serverSolvers()
	gate := make(chan struct{})
	gateMu.Lock()
	gateCh = gate
	gateMu.Unlock()
	release := sync.OnceFunc(func() {
		gateMu.Lock()
		close(gate)
		gateCh = nil
		gateMu.Unlock()
	})
	defer release()

	ts := newTestServer(t)
	body := `{"scenario": {
		"banks":   [{"battery": {"preset": "B1"}, "count": 2}],
		"loads":   [{"paper": "ILs alt"}],
		"solvers": ["sequential", "test-gate"]
	}, "workers": 1}`
	type firstLine struct {
		resp *http.Response
		rd   *bufio.Reader
		line []byte
		err  error
	}
	got := make(chan firstLine, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			got <- firstLine{err: err}
			return
		}
		rd := bufio.NewReader(resp.Body)
		line, err := rd.ReadBytes('\n')
		got <- firstLine{resp: resp, rd: rd, line: line, err: err}
	}()
	var first firstLine
	select {
	case first = <-got:
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("no line delivered in 10 s while the sweep's second cell was held")
	}
	if first.err != nil {
		t.Fatal(first.err)
	}
	defer first.resp.Body.Close()
	var res batsched.EvalResult
	if err := json.Unmarshal(first.line, &res); err != nil {
		t.Fatalf("first line %q: %v", first.line, err)
	}
	if res.Solver != "sequential" || res.Error != "" {
		t.Fatalf("first line %+v, want the sequential cell", res)
	}

	release()
	rest, err := io.ReadAll(first.rd)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(rest), &res); err != nil {
		t.Fatalf("rest of the body %q: %v", rest, err)
	}
	if res.Solver != "test-gate" {
		t.Fatalf("second line %+v, want the test-gate cell", res)
	}
}

// stallWriter is a ResponseWriter whose peer never reads: every Write blocks
// until the deadline last given through SetWriteDeadline, then fails as a
// socket would.
type stallWriter struct {
	header  http.Header
	release chan struct{}

	mu       sync.Mutex
	deadline time.Time
	writes   int
}

func (sw *stallWriter) Header() http.Header { return sw.header }
func (sw *stallWriter) WriteHeader(int)     {}
func (sw *stallWriter) Flush()              {}

func (sw *stallWriter) SetWriteDeadline(d time.Time) error {
	sw.mu.Lock()
	sw.deadline = d
	sw.mu.Unlock()
	return nil
}

func (sw *stallWriter) Write([]byte) (int, error) {
	sw.mu.Lock()
	sw.writes++
	d := sw.deadline
	sw.mu.Unlock()
	if d.IsZero() {
		<-sw.release
		return 0, errors.New("stalled write without a deadline")
	}
	select {
	case <-time.After(time.Until(d)):
	case <-sw.release:
	}
	return 0, os.ErrDeadlineExceeded
}

// A client that stops reading is cut off by the write deadline: the write
// fails, the sweep starts no further cell, the handler returns, and the
// deadline is cleared for the next request on the connection.
func TestSweepStalledReaderCutOff(t *testing.T) {
	saved := streamWriteTimeout
	t.Cleanup(func() { streamWriteTimeout = saved })
	streamWriteTimeout = 50 * time.Millisecond

	ts := newTestServer(t)
	const cells = 200
	sw := &stallWriter{header: http.Header{}, release: make(chan struct{})}
	t.Cleanup(func() { close(sw.release) })
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		ts.app.handleSweep(sw, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(sweep200Body)))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still running 10 s after a 50 ms write deadline")
	}
	if elapsed := time.Since(start); elapsed < streamWriteTimeout {
		t.Fatalf("handler returned after %v, before the %v deadline", elapsed, streamWriteTimeout)
	}
	if n := ts.svc.Stats().CellsEvaluated; n >= cells {
		t.Fatalf("%d cells evaluated after the stream died, want fewer than %d", n, cells)
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.writes != 1 {
		t.Fatalf("%d writes, want 1: the stream must stop at its first failed write", sw.writes)
	}
	if !sw.deadline.IsZero() {
		t.Fatalf("deadline %v left set on the connection after the handler returned", sw.deadline)
	}
}

// flushCounter records a response and counts its flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes atomic.Int64
}

func (fc *flushCounter) Flush() {
	fc.flushes.Add(1)
	fc.ResponseRecorder.Flush()
}

// A store-warm 200-cell sweep is flushed in batches: at most one flush per
// 32 KiB, per flushDelay of elapsed time, plus the first and the tail —
// and never once per line.
func TestSweepFlushCount(t *testing.T) {
	ts := newTestServer(t)
	if resp, data := postJSON(t, ts.URL+"/v1/sweep", sweep200Body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up sweep status %d: %s", resp.StatusCode, data)
	}
	evaluated := ts.svc.Stats().CellsEvaluated

	fc := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	start := time.Now()
	ts.app.handleSweep(fc, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(sweep200Body)))
	elapsed := time.Since(start)

	if fc.Code != http.StatusOK {
		t.Fatalf("status %d: %s", fc.Code, fc.Body.Bytes())
	}
	if lines := bytes.Count(fc.Body.Bytes(), nl); lines != 200 {
		t.Fatalf("%d lines, want 200", lines)
	}
	if bytes.Contains(fc.Body.Bytes(), []byte(`"error"`)) {
		t.Fatalf("a cell failed: %s", fc.Body.Bytes())
	}
	if n := ts.svc.Stats().CellsEvaluated; n != evaluated {
		t.Fatalf("store-warm sweep evaluated %d cells, want 0", n-evaluated)
	}
	flushes := fc.flushes.Load()
	bound := 2 + int64(fc.Body.Len()/flushBytes) + int64(elapsed/flushDelay)
	t.Logf("%d flushes for %d bytes in %v", flushes, fc.Body.Len(), elapsed)
	if flushes > bound || flushes >= 200 {
		t.Fatalf("%d flushes for %d bytes in %v, want at most %d and fewer than 200",
			flushes, fc.Body.Len(), elapsed, bound)
	}
}
