// Command e2ebench is the repository benchmark: it drives a live batserve
// process over loopback HTTP with one of four seeded workloads, checks every
// output, and prints each metric by name with its unit. With -trace 1 it
// instead reports the per-layer metrics: the same workload with
// benchmark-side spans, the server's own counters, and an in-process ladder
// of timed calls into each layer.
//
// Build and run it from a checkout root through run.sh, which builds the
// server and this command first:
//
//	bash e2ebench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"op_p50_ms": {"value": 4.1, "unit": "ms"}, ...}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sweep-cold, sweep-resubmit, optimal-jobs or session-openloop")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 15, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run instead of the end-to-end ones")
		bin     = flag.String("server", "", "batserve binary to drive")
		workdir = flag.String("workdir", "", "directory for the run's store files and trace dumps")
	)
	flag.Parse()
	// The client allocates a request and a response body per operation;
	// collecting rarely keeps its collector from competing with the
	// server for the two CPUs during the timed phase.
	debug.SetGCPercent(400)
	w, ok := lookupWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q", *name))
	}
	if *bin == "" || *workdir == "" {
		fatal(errors.New("-server and -workdir are required"))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatal(err)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		bin:     *bin,
		dir:     dir,
		out:     *workdir,
		w:       w,
	}
	res, err := r.execute(ctx)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	for _, f := range r.checks.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: CHECK FAILED:", f)
	}
	for _, m := range res.order {
		fmt.Printf("%-34s %16.6f %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, value float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}
