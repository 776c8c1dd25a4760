package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"batsched"
)

func TestACorruptedSweepLineFailsTheRun(t *testing.T) {
	ctx := context.Background()
	req := coldSweep(1, 3)
	body, err := inProcessSweep(ctx, batsched.NewEvalService(batsched.EvalOptions{}), req)
	if err != nil {
		t.Fatal(err)
	}
	request := func(int) batsched.SweepRequest { return req }

	var clean checker
	verifySweeps(ctx, &clean, map[int][]byte{3: body}, request)
	if !clean.ok() {
		t.Fatalf("an untouched body failed: %v", clean.failures)
	}

	// One digit of one lifetime changes: the line is still valid JSON and
	// the body still has 200 lines, so only the byte comparison catches it.
	bad := bytes.Clone(body)
	at := bytes.Index(bad, []byte(`"lifetime_min":`)) + len(`"lifetime_min":`)
	bad[at] = '0' + (bad[at]-'0'+1)%10
	if _, err := ndjsonLines(200, bad, cellsPerSweep); err != nil {
		t.Fatalf("the corrupted body should pass the cheap checks: %v", err)
	}
	var dirty checker
	verifySweeps(ctx, &dirty, map[int][]byte{3: bad}, request)
	if dirty.ok() {
		t.Fatal("a corrupted line passed verification")
	}
}

func TestNDJSONChecks(t *testing.T) {
	good := []byte("{\"lifetime_min\":1}\n{\"lifetime_min\":2}\n")
	if _, err := ndjsonLines(200, good, 2); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		status int
		body   string
		want   int
	}{
		"status":     {500, string(good), 2},
		"count":      {200, string(good), 3},
		"cell error": {200, "{\"lifetime_min\":1}\n{\"error\":\"boom\"}\n", 2},
		"truncated":  {200, "{\"lifetime_min\":1}\n{\"lifetime", 2},
	} {
		if _, err := ndjsonLines(tc.status, []byte(tc.body), tc.want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestJobAndSessionChecksCatchAWrongLifetime(t *testing.T) {
	job := optimalJob(1, 0)
	res, err := batsched.NewEvalService(batsched.EvalOptions{}).Sweep(context.Background(),
		batsched.SweepRequest{Scenario: job.Scenario, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([][]byte, len(res))
	for i, r := range res {
		lines[i] = mustJSON(r)
	}
	var ok checker
	verifyJob(&ok, 0, job, lines)
	if !ok.ok() {
		t.Fatalf("correct job lines failed: %v", ok.failures)
	}
	res[2].LifetimeMin += 0.01
	lines[2], _ = json.Marshal(res[2])
	var bad checker
	verifyJob(&bad, 0, job, lines)
	if bad.ok() {
		t.Fatal("a wrong optimal lifetime passed")
	}

	// A session life that really ends, recorded in-process.
	mgr := batsched.NewSessionManager(batsched.SessionOptions{})
	defer mgr.Shutdown(context.Background())
	s, err := mgr.Open(batsched.SessionSpec{Bank: pinBank, Policy: batsched.SolverSpec{Name: "efq"}})
	if err != nil {
		t.Fatal(err)
	}
	life := sessionLife{policy: "efq"}
	stream := newDeviceStream(1, 3)
	var tel batsched.SessionTelemetry
	for !tel.Dead {
		ev := stream.next()
		if err := s.Step(ev.CurrentA, ev.DurationMin, &tel); err != nil {
			t.Fatal(err)
		}
		life.events = append(life.events, ev)
	}
	life.lifetime = tel.LifetimeMin
	var sOK checker
	verifyLives(&sOK, []sessionLife{life})
	if !sOK.ok() {
		t.Fatalf("a replayed life failed: %v", sOK.failures)
	}
	life.lifetime += 0.01
	var sBad checker
	verifyLives(&sBad, []sessionLife{life})
	if sBad.ok() {
		t.Fatal("a wrong session lifetime passed")
	}
}
