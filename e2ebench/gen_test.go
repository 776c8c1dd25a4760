package main

import (
	"bytes"
	"context"
	"testing"

	"batsched"
)

// bodies renders a sample of every workload's request bodies for a seed.
func bodies(seed uint64) [][]byte {
	pool := poolLoads(seed)
	var out [][]byte
	for i := 0; i < 5; i++ {
		out = append(out,
			mustJSON(coldSweep(seed, i)),
			mustJSON(resubmitSweep(seed, pool, i)),
			mustJSON(optimalJob(seed, i+1)))
	}
	for _, req := range poolSweeps(seed) {
		out = append(out, mustJSON(req))
	}
	for d := 0; d < sessionDevices; d++ {
		s := newDeviceStream(seed, d)
		for k := 0; k < 20; k++ {
			out = append(out, mustJSON(s.next()))
		}
	}
	return out
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b, c := bodies(1), bodies(1), bodies(2)
	differ := 0
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between two generations from seed 1", i)
		}
		if !bytes.Equal(a[i], c[i]) {
			differ++
		}
	}
	// Only the op-0 job (the paper pin plus generated loads) and idle
	// events with equal durations can coincide across seeds.
	if differ < len(a)*3/4 {
		t.Fatalf("seeds 1 and 2 share %d of %d bodies", len(a)-differ, len(a))
	}
}

func TestResubmitSharesExactly180CellsWithThePool(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7} {
		warm := map[string]bool{}
		for _, req := range poolSweeps(seed) {
			cells, _, err := batsched.CellDigests(req)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				warm[c] = true
			}
		}
		if len(warm) != poolSize*cellsPerLoad {
			t.Fatalf("seed %d: pool holds %d distinct cells, want %d", seed, len(warm), poolSize*cellsPerLoad)
		}
		pool := poolLoads(seed)
		for i := 0; i < 50; i++ {
			cells, _, err := batsched.CellDigests(resubmitSweep(seed, pool, i))
			if err != nil {
				t.Fatal(err)
			}
			shared := 0
			for _, c := range cells {
				if warm[c] {
					shared++
				}
			}
			if len(cells) != cellsPerSweep || shared != cellsPerSweep-cellsPerLoad {
				t.Fatalf("seed %d op %d: %d cells, %d shared with the pool; want %d and %d",
					seed, i, len(cells), shared, cellsPerSweep, cellsPerSweep-cellsPerLoad)
			}
		}
	}
}

func TestColdSweepsAreNovelAndFailFree(t *testing.T) {
	seen := map[string]bool{}
	for _, req := range poolSweeps(1) {
		cells, _, _ := batsched.CellDigests(req)
		for _, c := range cells {
			seen[c] = true
		}
	}
	svc := batsched.NewEvalService(batsched.EvalOptions{})
	for i := 0; i < 5; i++ {
		req := coldSweep(1, i)
		cells, _, err := batsched.CellDigests(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if seen[c] {
				t.Fatalf("op %d repeats a cell", i)
			}
			seen[c] = true
		}
		body, err := inProcessSweep(context.Background(), svc, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ndjsonLines(200, body, cellsPerSweep); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestOptimalJobsValidate(t *testing.T) {
	for i := 0; i < 20; i++ {
		job := optimalJob(3, i)
		sp, err := job.Scenario.Compile()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if n := sp.Scenarios(); n != cellsPerJob {
			t.Fatalf("job %d expands to %d cells, want %d", i, n, cellsPerJob)
		}
	}
	if l := optimalJob(3, 0).Scenario.Loads[0]; l.Paper != pinLoad.Paper {
		t.Fatalf("job 0 starts with %+v, want the paper pin", l)
	}
}
