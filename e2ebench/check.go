package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	"batsched"
)

// checker collects failed output checks; a run with any is not correct.
type checker struct {
	mu       sync.Mutex
	failures []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.failures) == 0
}

// sampled picks a seeded 1-in-n subset of operations for the expensive
// checks that run after the timed phase.
func sampled(seed uint64, i, n int) bool {
	return rng(seed, streamSample, uint64(i)).IntN(n) == 0
}

// ndjsonLines checks an NDJSON response: status 200, exactly want lines,
// each one object, and no cell reporting an error. It returns the lines.
// The checks are byte scans, cheap enough for every response: decoding
// every line would put the client on the server's CPUs, and the sampled
// byte comparison with the in-process service covers the contents.
func ndjsonLines(status int, body []byte, want int) ([][]byte, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	if !bytes.HasSuffix(body, []byte("\n")) {
		return nil, fmt.Errorf("body does not end in a newline")
	}
	lines := bytes.Split(body[:len(body)-1], []byte("\n"))
	if len(lines) != want {
		return nil, fmt.Errorf("%d lines, want %d", len(lines), want)
	}
	for i, l := range lines {
		if !bytes.HasPrefix(l, []byte("{")) || !bytes.HasSuffix(l, []byte("}")) {
			return nil, fmt.Errorf("line %d is not one JSON object: %.200s", i, l)
		}
		if bytes.Contains(l, []byte(`"error":`)) {
			return nil, fmt.Errorf("line %d reports a cell error: %.200s", i, l)
		}
	}
	return lines, nil
}

// cellResult is the part of a result line the checks read.
type cellResult struct {
	Grid        string  `json:"grid"`
	Bank        string  `json:"bank"`
	Load        string  `json:"load"`
	Solver      string  `json:"solver"`
	LifetimeMin float64 `json:"lifetime_min"`
	Stats       *struct {
		States int64 `json:"states"`
	} `json:"stats"`
}

// inProcessSweep is the in-process service's NDJSON body for req: the
// reference every sampled HTTP sweep must match byte for byte.
func inProcessSweep(ctx context.Context, svc *batsched.EvalService, req batsched.SweepRequest) ([]byte, error) {
	var buf bytes.Buffer
	err := svc.SweepStreamLines(ctx, req, func(l batsched.SweepLine) error {
		buf.Write(l.Line)
		buf.WriteByte('\n')
		return nil
	})
	return buf.Bytes(), err
}

// verifySweeps byte-compares every kept HTTP sweep body with the in-process
// service's output for the same request.
func verifySweeps(ctx context.Context, ck *checker, kept map[int][]byte, request func(int) batsched.SweepRequest) {
	svc := batsched.NewEvalService(batsched.EvalOptions{})
	for i, got := range kept {
		want, err := inProcessSweep(ctx, svc, request(i))
		if err != nil {
			ck.fail("sweep op %d: in-process reference: %v", i, err)
			continue
		}
		if !bytes.Equal(got, want) {
			ck.fail("sweep op %d: HTTP body differs from the in-process service (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// checkPin asserts a paper-pinned lifetime, which the paper prints to two
// decimals.
func checkPin(ck *checker, what string, got, want float64) {
	if math.Abs(got-want) > 0.005 {
		ck.fail("paper pin %s: lifetime %.4f min, want %.2f", what, got, want)
	}
}

// verifyJob recomputes each cell of a sampled job with the exact optimal
// search in-process: lifetimes must match exactly, and so must the explored
// state count, because jobs run the serial search.
func verifyJob(ck *checker, i int, job batsched.JobRequest, lines [][]byte) {
	sp, err := job.Scenario.Compile()
	if err != nil {
		ck.fail("job op %d: %v", i, err)
		return
	}
	bats := sp.Banks[0].Batteries
	for j, lc := range sp.Loads {
		var got cellResult
		if err := json.Unmarshal(lines[j], &got); err != nil {
			ck.fail("job op %d cell %d: %v", i, j, err)
			continue
		}
		p, err := batsched.NewProblem(bats, lc.Load)
		if err != nil {
			ck.fail("job op %d cell %d: %v", i, j, err)
			continue
		}
		c, err := p.Compile()
		if err != nil {
			ck.fail("job op %d cell %d: %v", i, j, err)
			continue
		}
		lt, _, st, err := c.OptimalLifetimeWithStats()
		switch {
		case err != nil:
			ck.fail("job op %d cell %d: in-process search: %v", i, j, err)
		case got.LifetimeMin != lt:
			ck.fail("job op %d cell %d: lifetime %v over HTTP, %v in-process", i, j, got.LifetimeMin, lt)
		case got.Stats == nil || got.Stats.States != st.States:
			ck.fail("job op %d cell %d: states over HTTP differ from the in-process %d", i, j, st.States)
		}
	}
}

// sessionLife is one session from open to the step that exhausted its
// bank: the events it was fed and the lifetime the server reported.
type sessionLife struct {
	policy   string
	events   []drawEvent
	lifetime float64
}

// verifyLives replays every dead session's events through an in-process
// session; its final lifetime must equal the server's exactly.
func verifyLives(ck *checker, lives []sessionLife) {
	mgr := batsched.NewSessionManager(batsched.SessionOptions{MaxSessions: 1})
	defer mgr.Shutdown(context.Background())
	var tel batsched.SessionTelemetry
	for n, life := range lives {
		s, err := mgr.Open(batsched.SessionSpec{Bank: pinBank, Policy: batsched.SolverSpec{Name: life.policy}})
		if err != nil {
			ck.fail("session replay %d: open: %v", n, err)
			continue
		}
		for _, ev := range life.events {
			if err := s.Step(ev.CurrentA, ev.DurationMin, &tel); err != nil {
				ck.fail("session replay %d: step: %v", n, err)
				break
			}
		}
		if !tel.Dead || tel.LifetimeMin != life.lifetime {
			ck.fail("session replay %d (%s): in-process lifetime %v (dead %v), server reported %v",
				n, life.policy, tel.LifetimeMin, tel.Dead, life.lifetime)
		}
		if err := mgr.Close(s.ID()); err != nil {
			ck.fail("session replay %d: close: %v", n, err)
		}
	}
}
