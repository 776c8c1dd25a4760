package dkibam_test

import (
	"sync"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/core"
	"batsched/internal/dkibam"
	"batsched/internal/sched"
	"batsched/internal/sweep"
)

// TestSharedTablesConcurrentCompileAndSweep races the first builds of the
// shared tables: from a cold cache, goroutines compile 2xB1 and 1xB2
// artifacts on every benchmark grid while parallel sweeps run over the same
// banks and grids. Every result must equal a serial sweep's, and every
// artifact must hold the one shared table of its (battery, grid). Run it
// under -race.
func TestSharedTablesConcurrentCompileAndSweep(t *testing.T) {
	loads, err := sweep.PaperLoads([]string{"CL 250", "ILs alt", "ILl 500"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	banks := []sweep.Bank{
		sweep.BankOf("2xB1", battery.B1(), 2),
		sweep.BankOf("1xB2", battery.B2(), 1),
	}
	var grids []sweep.GridSpec
	for _, g := range []float64{0.01, 0.02, 0.025, 0.05, 0.1} {
		grids = append(grids, sweep.GridSpec{StepMin: g, UnitAmpMin: g})
	}
	sp := sweep.Spec{
		Banks:    banks,
		Loads:    loads,
		Policies: sweep.Policies(sched.Sequential(), sched.BestAvailable()),
		Grids:    grids,
	}

	dkibam.ResetDiscCache()
	const sweeps, compilers = 3, 3
	results := make([][]sweep.Result, sweeps)
	compiled := make([][]*core.Compiled, compilers)
	errs := make(chan error, sweeps+compilers)
	var wg sync.WaitGroup
	for i := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := sweep.Run(sp, sweep.Options{Workers: 2})
			if err != nil {
				errs <- err
			}
			results[i] = r
		}()
	}
	for i := range compilers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, g := range grids {
				for _, b := range banks {
					c, err := core.Compile(b.Batteries, loads[0].Load, g.StepMin, g.UnitAmpMin)
					if err != nil {
						errs <- err
						return
					}
					compiled[i] = append(compiled[i], c)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	serial, err := sweep.Run(sp, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		for j, want := range serial {
			got := r[j]
			if got.Err != nil || want.Err != nil {
				t.Fatalf("cell %d: errors %v / %v", j, got.Err, want.Err)
			}
			if got.Lifetime != want.Lifetime || got.Decisions != want.Decisions {
				t.Fatalf("sweep %d cell %d (%s/%s/%s/%s): %v min, %d decisions; serial %v min, %d decisions",
					i, j, want.Grid, want.Bank, want.Load, want.Policy,
					got.Lifetime, got.Decisions, want.Lifetime, want.Decisions)
			}
		}
	}
	for _, cs := range compiled {
		for k, c := range cs {
			g := grids[k/len(banks)]
			for _, d := range c.Discretizations() {
				shared, err := dkibam.Discretize(d.Params, g.StepMin, g.UnitAmpMin)
				if err != nil {
					t.Fatal(err)
				}
				if d != shared {
					t.Fatalf("artifact %d holds a private %s table on grid %v", k, d.Params.Label, g.StepMin)
				}
			}
		}
	}
}
