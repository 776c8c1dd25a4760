package main

// The layer ladder: timed in-process calls into each layer's public entry
// point, on the run's own generated inputs, so that each layer's self time
// is the difference of two rungs measured on the same operation. Every call
// into the library's layers lives in this file; a refactor that renames an
// entry point changes only this file.
//
//	engine   Compiled.PolicyLifetimeCount per cell (Problem.Compile timed apart)
//	sweep    RunSweep over the whole request
//	service  EvalService.SweepStreamLines without a store
//	  +memstore / +filestore  the same with a memory / file result store
//	digest, lookup  CellDigests and ResultStore.LookupCells on a warmed store
//	append   ResultStore.PutCell of each novel cell into a file store
//	sched    Compiled.OptimalLifetimeWithStats per job cell
//	jobs     JobManager Submit + Wait, against the job's own timestamps
//	session  SchedSession.Step, then SessionManager.Step by id
//
// All rungs are serial (one sweep worker) and run in a rotating order per
// operation, so slow drift of the machine spreads evenly over the rungs.

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"batsched"
)

// Ladder sample sizes. They are fixed rather than timed, so the exact
// counts the ladder reports (decisions per cell, search states per job)
// repeat exactly on every run with the same seed.
const (
	ladderColdOps     = 60
	ladderResubmitOps = 200
	ladderJobOps      = 12
	ladderDevices     = 16
	ladderSteps       = 250
)

// ladder holds the per-operation rung times and the counts the rungs made.
type ladder struct {
	rungs map[string][]time.Duration

	cells, decisions int
	// appends times each ResultStore.PutCell of a novel cell on a file
	// store.
	appends []time.Duration

	jobCells int
	search   batsched.OptimalSearchStats
	solve    time.Duration
	// queueWait and run come from the ladder jobs' own status timestamps;
	// manager is the Submit+Wait time outside the job's run.
	queueWait, run, manager []time.Duration
	sessionOpen             []time.Duration
}

func (l *ladder) add(rung string, d time.Duration) { l.rungs[rung] = append(l.rungs[rung], d) }

// timed runs fn inside a span named after the rung and returns the time fn
// took; the span's own cost stays outside the measurement.
func timed(ctx context.Context, rung string, fn func() error) (time.Duration, error) {
	_, sp := startSpan(ctx, rung)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sp.end()
	if err != nil {
		return d, fmt.Errorf("%s: %w", rung, err)
	}
	return d, nil
}

// rotate runs the rungs of operation op in an order rotated by op.
func rotate(op int, rungs []func() error) error {
	for k := range rungs {
		if err := rungs[(op+k)%len(rungs)](); err != nil {
			return err
		}
	}
	return nil
}

func discard(batsched.SweepLine) error { return nil }

func runLadder(ctx context.Context, seed uint64, dir string, tr *tracer) (*ladder, error) {
	l := &ladder{rungs: map[string][]time.Duration{}}
	for _, part := range []func(context.Context, uint64, string, *tracer) error{
		l.sweeps, l.resubmits, l.jobs, l.sessions,
	} {
		if err := part(ctx, seed, dir, tr); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// sweeps climbs the sweep stack on sweep-cold operations, where every cell
// is novel to every rung: each rung has its own service and store.
func (l *ladder) sweeps(ctx context.Context, seed uint64, dir string, tr *tracer) error {
	plain := batsched.NewEvalService(batsched.EvalOptions{})
	mem, err := batsched.OpenResultStore("")
	if err != nil {
		return err
	}
	withMem := batsched.NewEvalService(batsched.EvalOptions{Store: mem})
	file, err := batsched.OpenResultStoreWith(batsched.StoreOptions{
		Path: filepath.Join(dir, "ladder-cold.ndjson"),
		Sync: batsched.StoreSyncInterval,
	})
	if err != nil {
		return err
	}
	defer file.Close()
	withFile := batsched.NewEvalService(batsched.EvalOptions{Store: file})
	appendStore, err := batsched.OpenResultStoreWith(batsched.StoreOptions{
		Path: filepath.Join(dir, "ladder-append.ndjson"),
		Sync: batsched.StoreSyncInterval,
	})
	if err != nil {
		return err
	}
	defer appendStore.Close()
	stream := func(svc *batsched.EvalService, req batsched.SweepRequest) func() error {
		return func() error { return svc.SweepStreamLines(ctx, req, discard) }
	}

	for op := 0; op < ladderColdOps; op++ {
		req := coldSweep(seed, op)
		sp, err := req.Scenario.Compile()
		if err != nil {
			return err
		}
		octx, root := tr.startTrace(ctx, "ladder.op")
		record := func(rung string, fn func() error) func() error {
			return func() error {
				d, err := timed(octx, rung, fn)
				l.add(rung, d)
				return err
			}
		}
		err = rotate(op, []func() error{
			func() error { return l.engine(octx, sp) },
			record("ladder.sweep", func() error {
				_, err := batsched.RunSweep(sp, batsched.SweepOptions{Workers: 1})
				return err
			}),
			record("ladder.service", stream(plain, req)),
			record("ladder.service+memstore", stream(withMem, req)),
			record("ladder.service+filestore", stream(withFile, req)),
		})
		root.end()
		if err != nil {
			return err
		}
		if err := l.appendCells(req, mem, appendStore); err != nil {
			return err
		}
	}
	return nil
}

// appendCells times one PutCell per cell of req into a file store, taking
// the lines the memory-store rung committed.
func (l *ladder) appendCells(req batsched.SweepRequest, from, to *batsched.ResultStore) error {
	digests, _, err := batsched.CellDigests(req)
	if err != nil {
		return err
	}
	lines, _ := from.LookupCells(digests)
	for i, d := range digests {
		start := time.Now()
		err := to.PutCell(d, lines[i])
		l.appends = append(l.appends, time.Since(start))
		if err != nil {
			return err
		}
	}
	return nil
}

// engine compiles every (grid, bank, load) artifact of a sweep and runs
// every policy cell on it, timing the two apart.
func (l *ladder) engine(ctx context.Context, sp batsched.SweepSpec) error {
	var compile, eval time.Duration
	for _, g := range sp.Grids {
		for _, b := range sp.Banks {
			for _, lc := range sp.Loads {
				var c *batsched.Compiled
				d, err := timed(ctx, "ladder.compile", func() error {
					p, err := batsched.NewProblem(b.Batteries, lc.Load, batsched.WithGrid(g.StepMin, g.UnitAmpMin))
					if err == nil {
						c, err = p.Compile()
					}
					return err
				})
				if err != nil {
					return err
				}
				compile += d
				for _, pc := range sp.Policies {
					d, err := timed(ctx, "ladder.engine", func() error {
						_, n, err := c.PolicyLifetimeCount(pc.Policy)
						l.decisions += n
						return err
					})
					if err != nil {
						return err
					}
					eval += d
					l.cells++
				}
			}
		}
	}
	l.add("ladder.compile", compile)
	l.add("ladder.engine", eval)
	return nil
}

// resubmits measures the read path on sweep-resubmit operations against a
// file store warmed with the resubmit pool, as every server's store is.
func (l *ladder) resubmits(ctx context.Context, seed uint64, dir string, tr *tracer) error {
	st, err := batsched.OpenResultStoreWith(batsched.StoreOptions{
		Path: filepath.Join(dir, "ladder-resubmit.ndjson"),
		Sync: batsched.StoreSyncInterval,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	svc := batsched.NewEvalService(batsched.EvalOptions{Store: st})
	for _, req := range poolSweeps(seed) {
		if err := svc.SweepStreamLines(ctx, req, discard); err != nil {
			return err
		}
	}
	pool := poolLoads(seed)
	for op := 0; op < ladderResubmitOps; op++ {
		req := resubmitSweep(seed, pool, op)
		digests, _, err := batsched.CellDigests(req)
		if err != nil {
			return err
		}
		octx, root := tr.startTrace(ctx, "ladder.op")
		record := func(rung string, fn func() error) func() error {
			return func() error {
				d, err := timed(octx, rung, fn)
				l.add(rung, d)
				return err
			}
		}
		err = rotate(op, []func() error{
			record("ladder.digest", func() error {
				_, _, err := batsched.CellDigests(req)
				return err
			}),
			record("ladder.lookup", func() error {
				st.LookupCells(digests)
				return nil
			}),
			record("ladder.service+filestore.resubmit", func() error {
				return svc.SweepStreamLines(octx, req, discard)
			}),
		})
		root.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// jobs climbs the job stack on optimal-jobs operations: the search alone
// and the job manager around it.
func (l *ladder) jobs(ctx context.Context, seed uint64, dir string, tr *tracer) error {
	st, err := batsched.OpenResultStore("")
	if err != nil {
		return err
	}
	mgr := batsched.NewJobManager(batsched.NewEvalService(batsched.EvalOptions{Store: st}), st, batsched.JobOptions{Workers: 1})
	defer mgr.Shutdown(context.Background())
	// Operation 0 carries the paper pin on a smaller bank; the ladder
	// samples the generated jobs the workload mostly sends.
	for op := 1; op <= ladderJobOps; op++ {
		job := optimalJob(seed, op)
		sp, err := job.Scenario.Compile()
		if err != nil {
			return err
		}
		octx, root := tr.startTrace(ctx, "ladder.op")
		err = rotate(op, []func() error{
			func() error { return l.solveJob(octx, sp) },
			func() error {
				var s batsched.JobStatus
				d, err := timed(octx, "ladder.jobs", func() error {
					var err error
					if s, err = mgr.Submit(job); err == nil {
						s, err = mgr.Wait(octx, s.ID)
					}
					if err == nil && s.State != batsched.JobDone {
						err = fmt.Errorf("job ended %s: %s", s.State, s.Error)
					}
					return err
				})
				if err != nil {
					return err
				}
				return l.jobTimes(s, d)
			},
		})
		root.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// jobTimes records a finished job's queue wait and run time, and what the
// manager added around the run to the caller's Submit+Wait time total.
func (l *ladder) jobTimes(s batsched.JobStatus, total time.Duration) error {
	var at [3]time.Time
	for i, v := range []string{s.SubmittedAt, s.StartedAt, s.FinishedAt} {
		t, err := time.Parse(time.RFC3339Nano, v)
		if err != nil {
			return fmt.Errorf("job %s timestamps: %w", s.ID, err)
		}
		at[i] = t
	}
	l.queueWait = append(l.queueWait, at[1].Sub(at[0]))
	l.run = append(l.run, at[2].Sub(at[1]))
	l.manager = append(l.manager, total-at[2].Sub(at[1]))
	return nil
}

// solveJob runs the exact optimal search on every cell of a job.
func (l *ladder) solveJob(ctx context.Context, sp batsched.SweepSpec) error {
	var total time.Duration
	for _, lc := range sp.Loads {
		p, err := batsched.NewProblem(sp.Banks[0].Batteries, lc.Load)
		if err != nil {
			return err
		}
		c, err := p.Compile()
		if err != nil {
			return err
		}
		d, err := timed(ctx, "ladder.sched", func() error {
			_, _, st, err := c.OptimalLifetimeWithStats()
			l.search.Add(st)
			return err
		})
		if err != nil {
			return err
		}
		total += d
		l.jobCells++
	}
	l.solve += total
	l.add("ladder.sched", total)
	return nil
}

// sessions feeds each ladder device's event stream to two sessions on the
// same policy: one stepped directly, one through the manager by id. The
// two see identical events, so they die on the same step and reopen
// together.
func (l *ladder) sessions(ctx context.Context, seed uint64, _ string, tr *tracer) error {
	svc := batsched.NewEvalService(batsched.EvalOptions{})
	mgr := batsched.NewSessionManager(batsched.SessionOptions{MaxSessions: 2, CompileBank: svc.CompileBank})
	defer mgr.Shutdown(context.Background())
	var tel batsched.SessionTelemetry
	for dev := 0; dev < ladderDevices; dev++ {
		spec := batsched.SessionSpec{Bank: pinBank, Policy: batsched.SolverSpec{Name: sessionPolicies[dev%len(sessionPolicies)]}}
		open := func() (*batsched.SchedSession, error) {
			start := time.Now()
			s, err := mgr.Open(spec)
			l.sessionOpen = append(l.sessionOpen, time.Since(start))
			return s, err
		}
		direct, err := open()
		if err != nil {
			return err
		}
		viaMgr, err := open()
		if err != nil {
			return err
		}
		stream := newDeviceStream(seed, dev)
		octx, root := tr.startTrace(ctx, "ladder.op")
		for step := 0; step < ladderSteps; step++ {
			ev := stream.next()
			err := rotate(step, []func() error{
				func() error {
					d, err := timed(octx, "ladder.session.step", func() error { return direct.Step(ev.CurrentA, ev.DurationMin, &tel) })
					l.add("ladder.session.step", d)
					return err
				},
				func() error {
					d, err := timed(octx, "ladder.manager.step", func() error { return mgr.Step(viaMgr.ID(), ev.CurrentA, ev.DurationMin, &tel) })
					l.add("ladder.manager.step", d)
					return err
				},
			})
			if err != nil {
				root.end()
				return err
			}
			if !tel.Dead {
				continue
			}
			for _, s := range []*batsched.SchedSession{direct, viaMgr} {
				if err := mgr.Close(s.ID()); err != nil {
					root.end()
					return err
				}
			}
			if direct, err = open(); err == nil {
				viaMgr, err = open()
			}
			if err != nil {
				root.end()
				return err
			}
		}
		root.end()
		for _, s := range []*batsched.SchedSession{direct, viaMgr} {
			if err := mgr.Close(s.ID()); err != nil {
				return err
			}
		}
	}
	return nil
}
