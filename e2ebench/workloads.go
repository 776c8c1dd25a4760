package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"batsched"
)

// workload is one traffic mix; BENCHMARK.json records why each exists.
// drive runs its timed phase against live servers.
type workload struct {
	name string
	// novelCellsPerOp is how many cells of each operation no earlier
	// request holds: what the server must evaluate, no more.
	novelCellsPerOp float64
	// epochOps bounds the operations one server process serves (0 = the
	// whole phase on one server). The sweeps grow the store by every novel
	// cell, so a run restarts its server on a fresh copy of the warmed
	// store before memory grows past about 120 MB; and a bound makes the
	// peak resident memory of a full epoch the same work on every commit.
	// warmOps unrecorded operations open every epoch.
	epochOps, warmOps int
	// topRung is the highest in-process ladder rung of the workload's
	// stack: what the server adds over it is HTTP's share. Jobs measure
	// that share per job instead (phase.httpSelf).
	topRung string
	drive   func(ctx context.Context, r *run) (*phase, error)
}

// phase is what a workload's timed phase produced.
type phase struct {
	loopStats
	// counts the workload's own client saw: status polls (jobs) and 409s
	// (sessions).
	polls, busy int
	// httpSelf is, per job, the client's time for the job minus the
	// server's own submit-to-finish time from the job's status.
	httpSelf []time.Duration
	// maxRate is the highest open-loop rate whose stage met the latency
	// limit (traced session runs only).
	maxRate float64
	verify  func(ctx context.Context)
}

var workloads = []workload{
	{
		name:            "sweep-cold",
		novelCellsPerOp: cellsPerSweep,
		epochOps:        500,
		warmOps:         25,
		topRung:         "ladder.service+filestore",
		drive:           driveSweepCold,
	},
	{
		name:            "sweep-resubmit",
		novelCellsPerOp: cellsPerLoad,
		epochOps:        2000,
		warmOps:         100,
		topRung:         "ladder.service+filestore.resubmit",
		drive:           driveSweepResubmit,
	},
	{
		name:            "optimal-jobs",
		novelCellsPerOp: cellsPerJob,
		epochOps:        50,
		warmOps:         2,
		drive:           driveOptimalJobs,
	},
	{
		name:    "session-openloop",
		topRung: "ladder.manager.step",
		drive:   driveSessions,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmPool sends the four pool sweeps that every workload's store starts
// from and asserts the best-of-two paper pin on the way.
func warmPool(ctx context.Context, r *run) error {
	pinned := false
	for n, req := range poolSweeps(r.seed) {
		status, body, err := r.cl.call(ctx, "http.sweep", http.MethodPost, "/v1/sweep", mustJSON(req))
		if err != nil {
			return fmt.Errorf("warm sweep %d: %w", n, err)
		}
		lines, err := ndjsonLines(status, body, cellsPerSweep)
		if err != nil {
			return fmt.Errorf("warm sweep %d: %w", n, err)
		}
		for _, l := range lines {
			var c cellResult
			if err := json.Unmarshal(l, &c); err != nil {
				return err
			}
			if c.Grid == "paper" && c.Bank == pinBank.Name && c.Load == pinLoad.Paper && c.Solver == "best-of-two" {
				checkPin(&r.checks, "2xB1/ILs alt/bestof", c.LifetimeMin, pinBestOf)
				pinned = true
			}
		}
	}
	if !pinned {
		r.checks.fail("the warm pool holds no 2xB1/ILs alt/bestof cell")
	}
	return nil
}

// sweepLoop drives 200-cell sweeps with two closed-loop clients and keeps a
// seeded 1-in-20 sample of bodies for the byte comparison afterwards.
func sweepLoop(ctx context.Context, r *run, request func(int) batsched.SweepRequest) (*phase, error) {
	var mu sync.Mutex
	kept := map[int][]byte{}
	op := func(ctx context.Context, i int, sent func()) error {
		body := mustJSON(request(i))
		sent()
		status, data, err := r.cl.call(ctx, "http.sweep", http.MethodPost, "/v1/sweep", body)
		if err != nil {
			return err
		}
		if _, err := ndjsonLines(status, data, cellsPerSweep); err != nil {
			r.checks.fail("sweep op %d: %v", i, err)
			return err
		}
		if sampled(r.seed, i, 20) {
			mu.Lock()
			kept[i] = data
			mu.Unlock()
		}
		return nil
	}
	st, err := r.closed(ctx, op)
	return &phase{
		loopStats: st,
		verify:    func(ctx context.Context) { verifySweeps(ctx, &r.checks, kept, request) },
	}, err
}

func driveSweepCold(ctx context.Context, r *run) (*phase, error) {
	return sweepLoop(ctx, r, func(i int) batsched.SweepRequest { return coldSweep(r.seed, i) })
}

func driveSweepResubmit(ctx context.Context, r *run) (*phase, error) {
	pool := poolLoads(r.seed)
	return sweepLoop(ctx, r, func(i int) batsched.SweepRequest { return resubmitSweep(r.seed, pool, i) })
}

// jobPollInterval is how often a client polls a submitted job's status.
const jobPollInterval = 2 * time.Millisecond

func driveOptimalJobs(ctx context.Context, r *run) (*phase, error) {
	var (
		mu       sync.Mutex
		kept     = map[int][][]byte{}
		polls    int
		httpSelf []time.Duration
	)
	op := func(ctx context.Context, i int, sent func()) error {
		job := optimalJob(r.seed, i)
		body := mustJSON(job)
		sent()
		start := time.Now()
		status, data, err := r.cl.call(ctx, "http.job.submit", http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return err
		}
		var st batsched.JobStatus
		if status != http.StatusAccepted || json.Unmarshal(data, &st) != nil {
			r.checks.fail("job op %d: submit answered %d: %.200s", i, status, data)
			return fmt.Errorf("job submit status %d", status)
		}
		n := 0
		for st.State != batsched.JobDone {
			if st.State == batsched.JobFailed || st.State == batsched.JobCancelled {
				r.checks.fail("job op %d: state %s: %s", i, st.State, st.Error)
				return fmt.Errorf("job %s", st.State)
			}
			time.Sleep(jobPollInterval)
			n++
			status, data, err = r.cl.call(ctx, "http.job.poll", http.MethodGet, "/v1/jobs/"+st.ID, nil)
			if err != nil {
				return err
			}
			if status != http.StatusOK || json.Unmarshal(data, &st) != nil {
				r.checks.fail("job op %d: poll answered %d: %.200s", i, status, data)
				return fmt.Errorf("job poll status %d", status)
			}
		}
		status, data, err = r.cl.call(ctx, "http.job.results", http.MethodGet, "/v1/jobs/"+st.ID+"/results", nil)
		if err != nil {
			return err
		}
		lines, err := ndjsonLines(status, data, cellsPerJob)
		if err != nil {
			r.checks.fail("job op %d: results: %v", i, err)
			return err
		}
		if i == 0 {
			var c cellResult
			if err := json.Unmarshal(lines[0], &c); err != nil {
				return err
			}
			checkPin(&r.checks, "2xB1/ILs alt/optimal", c.LifetimeMin, pinOptimal)
		}
		onServer, err := jobSpan(st)
		if err != nil {
			r.checks.fail("job op %d: %v", i, err)
			return err
		}
		mu.Lock()
		polls += n
		httpSelf = append(httpSelf, time.Since(start)-onServer)
		if i == 0 || sampled(r.seed, i, 10) {
			kept[i] = lines
		}
		mu.Unlock()
		return nil
	}
	st, err := r.closed(ctx, op)
	if _, ok := kept[0]; !ok && err == nil {
		r.checks.fail("job op 0 (the paper pin) did not complete")
	}
	return &phase{
		loopStats: st,
		polls:     polls,
		httpSelf:  httpSelf,
		verify: func(context.Context) {
			for i, lines := range kept {
				verifyJob(&r.checks, i, optimalJob(r.seed, i), lines)
			}
		},
	}, err
}

// jobSpan is a finished job's time from submission to finish by the
// server's own clock.
func jobSpan(st batsched.JobStatus) (time.Duration, error) {
	sub, err := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	if err != nil {
		return 0, fmt.Errorf("job %s submitted_at: %w", st.ID, err)
	}
	fin, err := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err != nil {
		return 0, fmt.Errorf("job %s finished_at: %w", st.ID, err)
	}
	return fin.Sub(sub), nil
}

// device is one simulated battery-powered device: an endless event stream
// served by a live session, reopened whenever its bank dies.
type device struct {
	policy string
	id     string
	stream *deviceStream
	// life is the events the current session has served; dead marks a
	// session whose bank is exhausted.
	life []drawEvent
	dead bool
}

// The session open loop runs at sessionRate steps per second, about 45% of
// what this server sustains on two CPUs. At half that rate the server
// idles between steps and the latency measures the machine's wake-ups: its
// run-to-run spread was 30%, against 8% here. The traced run keeps the
// rate for the first third of its timed phase, then ramps it by
// rampFactor every rampStage until two stages in a row miss the latency
// limit or the phase ends. A stage meets the limit when its p99 latency is
// at most stepLimit, no step failed and the sender was never more than
// maxSenderLag late (beyond that the stage measured the sender).
const (
	sessionRate  = 4000
	rampFactor   = 1.1
	rampStage    = 500 * time.Millisecond
	stepLimit    = 2 * time.Millisecond
	maxSenderLag = time.Millisecond
)

func stageMeetsLimit(st loopStats) bool {
	return st.failed == 0 &&
		quantile(ms(st.lat), 0.99) <= msOf(stepLimit) &&
		quantile(ms(st.lag), 0.99) <= msOf(maxSenderLag)
}

func openSession(ctx context.Context, r *run, d *device, n int) error {
	status, data, err := r.cl.call(ctx, "http.session.open", http.MethodPost, "/v1/sessions", sessionOpenBody(n))
	if err != nil {
		return err
	}
	var info struct {
		ID string `json:"id"`
	}
	if status != http.StatusCreated || json.Unmarshal(data, &info) != nil || info.ID == "" {
		return fmt.Errorf("session open answered %d: %.200s", status, data)
	}
	d.id = info.ID
	return nil
}

// reopenSession closes a device's dead session and opens a fresh one.
func reopenSession(ctx context.Context, r *run, d *device, n int) error {
	status, data, err := r.cl.call(ctx, "http.session.close", http.MethodDelete, "/v1/sessions/"+d.id, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("session close answered %d: %.200s", status, data)
	}
	d.dead = false
	return openSession(ctx, r, d, n)
}

func driveSessions(ctx context.Context, r *run) (*phase, error) {
	devices := make([]*device, sessionDevices)
	var (
		mu    sync.Mutex
		lives []sessionLife
		busy  int
	)
	op := func(ctx context.Context, k, lane int) error {
		d := devices[lane]
		if d.dead {
			// The bank died on this device's previous step. This step
			// cannot be served before a fresh session replaces it, so the
			// close and reopen count against this step's latency.
			if err := reopenSession(ctx, r, d, lane); err != nil {
				r.checks.fail("session reopen on lane %d: %v", lane, err)
				return err
			}
		}
		ev := d.stream.next()
		status, data, err := r.cl.call(ctx, "http.session.step", http.MethodPost, "/v1/sessions/"+d.id+"/step", mustJSON(ev))
		if err != nil {
			return err
		}
		var t struct {
			Dead        bool    `json:"dead"`
			LifetimeMin float64 `json:"lifetime_min"`
		}
		if status != http.StatusOK || json.Unmarshal(data, &t) != nil {
			if status == http.StatusConflict {
				mu.Lock()
				busy++
				mu.Unlock()
			}
			r.checks.fail("session step %d: answered %d: %.200s", k, status, data)
			return fmt.Errorf("step status %d", status)
		}
		d.life = append(d.life, ev)
		if t.Dead {
			mu.Lock()
			lives = append(lives, sessionLife{policy: d.policy, events: d.life, lifetime: t.LifetimeMin})
			mu.Unlock()
			d.life, d.dead = nil, true
		}
		return nil
	}
	p := &phase{verify: func(context.Context) { verifyLives(&r.checks, lives) }}
	err := r.serve(ctx, func(srv *server) error {
		for n := range devices {
			devices[n] = &device{policy: sessionPolicies[n%len(sessionPolicies)], stream: newDeviceStream(r.seed, n)}
			if err := openSession(ctx, r, devices[n], n); err != nil {
				return err
			}
		}
		warm := openLoop(ctx, time.Now(), sessionRate, min(time.Second, r.seconds/4), sessionDevices, 0, nil, op)
		if warm.failed > 0 {
			r.checks.fail("%d of %d warm-up operations failed", warm.failed, warm.attempted)
		}
		k := warm.attempted
		if !r.trace {
			return r.measure(ctx, srv, func() bool {
				p.loopStats = openLoop(ctx, time.Now(), sessionRate, r.seconds, sessionDevices, k, nil, op)
				return false
			})
		}
		// The traced run spends a third of its time at the session rate and
		// the rest on the ramp.
		err := r.measure(ctx, srv, func() bool {
			p.loopStats = openLoop(ctx, time.Now(), sessionRate, r.seconds/3, sessionDevices, k, r.tr, op)
			return false
		})
		if err != nil {
			return err
		}
		k += p.attempted
		if stageMeetsLimit(p.loopStats) {
			p.maxRate = sessionRate
		}
		misses := 0
		for rate, left := float64(sessionRate), r.seconds-r.seconds/3; left >= rampStage && misses < 2; left -= rampStage {
			rate *= rampFactor
			st := openLoop(ctx, time.Now(), rate, rampStage, sessionDevices, k, r.tr, op)
			k += st.attempted
			if stageMeetsLimit(st) {
				p.maxRate, misses = rate, 0
			} else {
				misses++
			}
		}
		return nil
	})
	p.busy = busy
	return p, err
}
