package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the smoke
// test holds the benchmark to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestE2ESmoke builds batserve and runs every workload for about a second
// with every output check on, plus one traced run, and holds the metrics
// each prints to the names and units BENCHMARK.json declares.
func TestE2ESmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds batserve and drives it over loopback")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(names, defined) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark defines %v", names, defined)
	}

	bin := filepath.Join(t.TempDir(), "batserve")
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "batsched/cmd/batserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build batserve: %v\n%s", err, out)
	}
	check := func(t *testing.T, name string, traced bool, want map[string]string) {
		r := &run{
			seed: 1, seconds: time.Second, trace: traced, bin: bin,
			dir: t.TempDir(), out: t.TempDir(),
		}
		r.w, _ = lookupWorkload(name)
		res, err := r.execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, r.checks.failures)
		}
		for m, unit := range want {
			got, ok := res.Metrics[m]
			if !ok || got.Unit != unit {
				t.Errorf("metric %s: got %+v, want unit %s", m, got, unit)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(res.Metrics), len(want))
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range names {
		t.Run(w, func(t *testing.T) { check(t, w, false, e2e) })
	}
	t.Run("traced", func(t *testing.T) { check(t, "session-openloop", true, layers) })
}
