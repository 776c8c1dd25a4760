package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// run is one benchmark invocation: one workload, one seed.
type run struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	bin     string
	// dir holds the run's store files and is removed afterwards; out keeps
	// the trace dumps.
	dir, out string
	w        workload

	warmStore string
	ready     []float64
	epochs    []epoch
	cl        *client
	tr        *tracer
	checks    checker
}

// epoch is one server process's share of the timed phase: its counters
// before and after the timed loop, the CPU time and collections the loop
// cost it, and its resident high-water mark.
type epoch struct {
	before, after exposition
	cpuSeconds    float64
	gc            gcSummary
	rssMB         float64
	// complete marks an epoch that served its workload's full epochOps.
	complete bool
}

// setupStarts is the least number of server starts a run measures; setup_s
// is the median of their exec-to-ready times.
const setupStarts = 5

func (r *run) execute(ctx context.Context) (*result, error) {
	if err := r.warmPool(ctx); err != nil {
		return nil, err
	}
	if r.trace {
		r.tr = newTracer(time.Second)
	}
	p, err := r.w.drive(ctx, r)
	if err != nil {
		return nil, err
	}
	for len(r.ready) < setupStarts {
		srv, err := r.start(ctx)
		if err != nil {
			return nil, err
		}
		if err := srv.stop(); err != nil {
			return nil, err
		}
	}
	p.verify(ctx)
	res := &result{Metrics: map[string]metric{}, Attempted: p.attempted, Failed: p.failed}
	res.Correct = r.checks.ok() && p.failed == 0
	if !r.trace {
		r.endToEnd(res, p)
		return res, nil
	}
	if err := r.tr.write(r.outFile("spans.json")); err != nil {
		return nil, err
	}
	if err := r.perLayer(ctx, res, p); err != nil {
		return nil, err
	}
	return res, nil
}

// warmPool builds the store every server of the run starts from: the 800
// cells of the resubmit pool, evaluated by a first server.
func (r *run) warmPool(ctx context.Context) error {
	r.warmStore = filepath.Join(r.dir, "warm.ndjson")
	srv, err := startServer(ctx, r.bin, r.warmStore, false)
	if err != nil {
		return err
	}
	r.cl = newClient(srv.base)
	err = warmPool(ctx, r)
	r.cl.close()
	if stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	return err
}

// start launches a server on a fresh copy of the warmed store and records
// its set-up time.
func (r *run) start(ctx context.Context) (*server, error) {
	data, err := os.ReadFile(r.warmStore)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.dir, fmt.Sprintf("store-%d.ndjson", len(r.ready)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, r.bin, path, r.trace)
	if err != nil {
		return nil, err
	}
	r.ready = append(r.ready, srv.ready.Seconds())
	return srv, nil
}

// serve runs fn against a fresh server; fn warms the server up and brackets
// its timed loop with measure.
func (r *run) serve(ctx context.Context, fn func(srv *server) error) error {
	srv, err := r.start(ctx)
	if err != nil {
		return err
	}
	r.cl = newClient(srv.base)
	defer r.cl.close()
	fail := func(err error) error {
		srv.kill()
		return err
	}
	if err := fn(srv); err != nil {
		return fail(err)
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return fail(err)
	}
	r.epochs[len(r.epochs)-1].rssMB = rss
	if r.trace {
		// The server's own span ring, kept beside the benchmark's spans
		// as a cross-check; each epoch overwrites the previous dump.
		status, body, err := r.cl.call(ctx, "http.traces", http.MethodGet, "/debug/traces", nil)
		if err == nil && status == http.StatusOK {
			err = os.WriteFile(r.outFile("server-traces.json"), body, 0o644)
		}
		if err != nil {
			return fail(fmt.Errorf("save /debug/traces: %v", err))
		}
	}
	return srv.stop()
}

// measure runs one timed loop on srv as an epoch: the server's counters,
// CPU time and collections are taken around the loop alone. The loop
// reports whether it served the workload's full epochOps.
func (r *run) measure(ctx context.Context, srv *server, loop func() bool) error {
	var e epoch
	var err error
	if e.before, err = r.scrape(ctx); err != nil {
		return err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	mark := len(srv.stderrText())
	e.complete = loop()
	if e.after, err = r.scrape(ctx); err != nil {
		return err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	e.cpuSeconds = cpu1 - cpu0
	e.gc = gcStats(srv.stderrText()[mark:])
	r.epochs = append(r.epochs, e)
	return nil
}

func (r *run) scrape(ctx context.Context) (exposition, error) {
	status, body, err := r.cl.call(ctx, "http.metrics", http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	return parseExposition(bytes.NewReader(body))
}

func (r *run) outFile(kind string) string {
	return filepath.Join(r.out, fmt.Sprintf("%s-seed%d-%s", r.w.name, r.seed, kind))
}

// closed runs the timed phase of a two-client closed loop for r.seconds,
// as one or more epochs of at most the workload's epochOps operations,
// each after warmOps unrecorded warm-up operations on the epoch's server.
func (r *run) closed(ctx context.Context, op opFunc) (loopStats, error) {
	var total loopStats
	next := 0
	for left := r.seconds; left > 0 && ctx.Err() == nil; {
		err := r.serve(ctx, func(srv *server) error {
			warm, n := closedLoop(ctx, 2, next, r.w.warmOps, time.Minute, nil, op)
			if warm.failed > 0 {
				r.checks.fail("%d of %d warm-up operations failed", warm.failed, warm.attempted)
			}
			return r.measure(ctx, srv, func() bool {
				st, n := closedLoop(ctx, 2, n, r.w.epochOps, left, r.tr, op)
				next = n
				total.merge(&st)
				left -= st.elapsed
				return r.w.epochOps > 0 && st.attempted == r.w.epochOps
			})
		})
		if err != nil {
			return total, err
		}
	}
	return total, ctx.Err()
}

// counter sums a counter's change over every epoch.
func (r *run) counter(name string) float64 {
	sum := 0.0
	for _, e := range r.epochs {
		sum += delta(e.before, e.after, name)
	}
	return sum
}

// histogram merges a histogram's change over every epoch.
func (r *run) histogram(name string) histDelta {
	var h histDelta
	for _, e := range r.epochs {
		h = h.add(histogramDelta(e.before, e.after, name))
	}
	return h
}

// peakRSS is the median resident high-water mark of the epochs that served
// their full operation budget — the same work on every commit — or, when
// no epoch did, the largest.
func (r *run) peakRSS() float64 {
	var full []float64
	most := 0.0
	for _, e := range r.epochs {
		most = max(most, e.rssMB)
		if e.complete {
			full = append(full, e.rssMB)
		}
	}
	if len(full) == 0 {
		return most
	}
	return median(full)
}

// endToEnd fills in the end-to-end metrics: the ones a user or operator
// of the server sees, measured with tracing off.
func (r *run) endToEnd(res *result, p *phase) {
	lat := ms(p.lat)
	cpu := 0.0
	for _, e := range r.epochs {
		cpu += e.cpuSeconds
	}
	res.set("setup_s", median(r.ready), "s")
	res.set("ops_per_s", p.opsPerSecond(), "ops/s")
	res.set("op_p50_ms", quantile(lat, 0.5), "ms")
	res.set("op_p90_ms", quantile(lat, 0.9), "ms")
	res.set("server_cpu_ms_per_op", 1000*ratio(cpu, float64(p.attempted)), "ms")
	res.set("peak_rss_mb", r.peakRSS(), "MB")
}

// perLayer fills in the per-layer metrics from a traced run: the
// workload's own counters and client-side counts, the server's collections,
// and the in-process ladder.
func (r *run) perLayer(ctx context.Context, res *result, p *phase) error {
	spin := make([]float64, 5)
	for i := range spin {
		spin[i] = msOf(calibrateSpin())
	}
	ltr := newTracer(0)
	l, err := runLadder(ctx, r.seed, r.dir, ltr)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if err := ltr.write(r.outFile("ladder-spans.json")); err != nil {
		return err
	}
	ops := float64(p.attempted)
	perOp := func(v float64) float64 { return ratio(v, ops) }
	us := func(ds []time.Duration) float64 { return median(durations(ds, time.Microsecond)) }
	self := func(top string, below ...string) float64 {
		return median(selfDurations(l.rungs, top, below...)) / float64(time.Microsecond)
	}

	// The tail of the workload's own latency: too spread here to gate.
	res.set("op_p99_ms", quantile(ms(p.lat), 0.99), "ms")

	// dkibam, core, sweep, service, store: the sweep stack.
	res.set("dkibam.eval_us_per_cell", us(l.rungs["ladder.engine"])/cellsPerSweep, "us")
	res.set("dkibam.decisions_per_cell", ratio(float64(l.decisions), float64(l.cells)), "count")
	res.set("core.compile_us_per_cell", us(l.rungs["ladder.compile"])/cellsPerSweep, "us")
	res.set("sweep.self_us_per_op", self("ladder.sweep", "ladder.compile", "ladder.engine"), "us")
	res.set("service.self_us_per_op", self("ladder.service", "ladder.sweep"), "us")
	res.set("service.digest_us_per_op", us(l.rungs["ladder.digest"]), "us")
	evaluated := r.counter("batserve_sweep_cells_evaluated_total")
	res.set("service.cells_evaluated_per_op", perOp(evaluated), "count")
	useful := 1.0
	if evaluated > 0 {
		useful = min(r.w.novelCellsPerOp*ops, evaluated) / evaluated
	}
	res.set("service.useful_eval_ratio", useful, "ratio")
	hits, compiles := r.counter("batserve_cache_hits_total"), r.counter("batserve_cache_compiles_total")
	res.set("service.compile_cache_hit_ratio", ratio(hits, hits+compiles), "ratio")
	res.set("store.lookup_us_per_op", us(l.rungs["ladder.lookup"]), "us")
	res.set("store.mem_self_us_per_op", self("ladder.service+memstore", "ladder.service"), "us")
	res.set("store.file_self_us_per_op", self("ladder.service+filestore", "ladder.service+memstore"), "us")
	cellHits, cellMisses := r.counter("batserve_store_cell_hits_total"), r.counter("batserve_store_cell_misses_total")
	res.set("store.hit_ratio", ratio(cellHits, cellHits+cellMisses), "ratio")
	res.set("store.appends_per_op", perOp(r.histogram("batserve_store_append_seconds").count), "count")
	res.set("store.append_p50_us", us(l.appends), "us")
	res.set("store.append_retries", r.counter("batserve_store_append_retries_total"), "count")
	res.set("store.errors", r.counter("batserve_store_append_errors_total")+r.counter("batserve_store_errors_total")+
		r.counter("batserve_store_sync_errors_total")+r.counter("batserve_store_dropped_puts_total"), "count")

	// jobs and sched: the optimal-job stack.
	res.set("jobs.self_ms_per_op", us(l.manager)/1e3, "ms")
	res.set("jobs.queue_wait_p50_ms", us(l.queueWait)/1e3, "ms")
	res.set("jobs.run_p50_ms", us(l.run)/1e3, "ms")
	res.set("jobs.polls_per_op", perOp(float64(p.polls)), "count")
	res.set("jobs.retries", r.counter("batserve_job_retries_total"), "count")
	res.set("jobs.panics", r.counter("batserve_job_panics_total"), "count")
	st := l.search
	res.set("sched.solve_ms_per_cell", ratio(msOf(l.solve), float64(l.jobCells)), "ms")
	res.set("sched.states_per_op", ratio(float64(st.States), ladderJobOps), "count")
	res.set("sched.states_per_s", ratio(float64(st.States), l.solve.Seconds()), "1/s")
	res.set("sched.prune_ratio", ratio(float64(st.Pruned), float64(st.States)), "ratio")
	res.set("sched.lp_useful_ratio", ratio(float64(st.LPPruned), float64(st.LPBounds)), "ratio")
	res.set("sched.memo_hit_ratio", ratio(float64(st.MemoHits), float64(st.MemoHits+st.States)), "ratio")

	// session: the online stack.
	steps := durations(l.rungs["ladder.session.step"], time.Microsecond)
	res.set("session.step_us_p50", quantile(steps, 0.5), "us")
	res.set("session.step_us_p99", quantile(steps, 0.99), "us")
	res.set("session.manager_self_us", us(l.rungs["ladder.manager.step"])-quantile(steps, 0.5), "us")
	res.set("session.open_us_p50", us(l.sessionOpen), "us")
	res.set("session.busy_rejects", float64(p.busy), "count")
	res.set("session.max_rate_ops_per_s", p.maxRate, "ops/s")

	// batserve: what HTTP adds over the highest in-process rung of this
	// workload's stack, measured on the untraced half of the run; a job's
	// cost varies too much for two samples' medians to compare, so jobs
	// are measured one by one against the server's own timestamps.
	httpSelf := median(durations(p.httpSelf, time.Microsecond))
	if r.w.topRung != "" {
		var plain []time.Duration
		for i, d := range p.lat {
			if !p.traced[i] {
				plain = append(plain, d)
			}
		}
		httpSelf = us(plain) - us(l.rungs[r.w.topRung])
	}
	res.set("batserve.http_self_us_per_op", httpSelf, "us")
	// The server's own view of its request time, every route together,
	// interpolated from its latency histogram.
	res.set("batserve.server_request_p50_us", r.histogram("batserve_http_request_seconds").quantile(0.5)*1e6, "us")
	res.set("batserve.shed", r.counter("batserve_requests_shed_total"), "count")
	res.set("batserve.http_5xx", r.http5xx(), "count")

	// The server's Go runtime over the timed phase.
	var gc gcSummary
	for _, e := range r.epochs {
		gc.cycles += e.gc.cycles
		gc.pauseMS += e.gc.pauseMS
		gc.peakHeapMB = max(gc.peakHeapMB, e.gc.peakHeapMB)
	}
	res.set("go.gc_cycles_per_op", perOp(float64(gc.cycles)), "count")
	res.set("go.gc_pause_ms_per_op", perOp(gc.pauseMS), "ms")
	res.set("go.heap_alloc_mb_peak", gc.peakHeapMB, "MB")

	// The benchmark's own health.
	res.set("bench.gen_lag_p99_ms", quantile(ms(p.lag), 0.99), "ms")
	res.set("bench.trace_overhead_pct", traceOverheadPct(p.loopStats), "%")
	res.set("bench.client_self_us_per_op", r.tr.selfPerTrace("op")/float64(time.Microsecond), "us")
	res.set("bench.calibrate_spin_ms", median(spin), "ms")
	res.set("bench.calibrate_mem_ms", msOf(calibrateMem()), "ms")
	return nil
}

// selfDurations is, per operation, the top rung's time minus the rungs
// below it on the same operation.
func selfDurations(rungs map[string][]time.Duration, top string, below ...string) []float64 {
	out := make([]float64, len(rungs[top]))
	for i, d := range rungs[top] {
		for _, b := range below {
			d -= rungs[b][i]
		}
		out[i] = float64(d)
	}
	return out
}

// traceOverheadPct compares the median latency of the traced operations
// with the untraced ones of the same run.
func traceOverheadPct(st loopStats) float64 {
	var on, off []float64
	for i, d := range st.lat {
		v := float64(d)
		if st.traced[i] {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	return 100 * (ratio(median(on), median(off)) - 1)
}

// http5xx counts the server-error responses of the timed phase.
func (r *run) http5xx() float64 {
	sum := 0.0
	for _, e := range r.epochs {
		for k, v := range e.after {
			if seriesName(k) != "batserve_http_request_seconds_count" {
				continue
			}
			if status, ok := labelValue(k, "status"); ok && status[0] == '5' {
				sum += v - e.before[k]
			}
		}
	}
	return sum
}

// calibrateSpin times a fixed amount of pure CPU work: a reference for how
// fast the machine ran during this run.
func calibrateSpin() time.Duration {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
	return time.Since(start)
}

var spinSink uint64

// calibrateMem times a fixed random walk over 64 MB: unlike the spin, it
// tracks how much memory bandwidth neighbouring work leaves this machine,
// the main source of run-to-run spread in the end-to-end times.
func calibrateMem() time.Duration {
	table := make([]uint64, 8<<20)
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[x>>41] += x
	}
	d := time.Since(start)
	spinSink = table[x>>41]
	return d
}
