package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/metrics.txt is a /metrics scrape of a batserve that served the
// warm-pool sweeps, two optimal jobs and a few session steps.
func TestParseCapturedExposition(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"batserve_sweep_cells_evaluated_total": 808,
		`batserve_jobs{state="done"}`:          2,
		"batserve_session_steps_total":         5,
		"batserve_store_cell_misses_total":     808,
	} {
		if got, ok := e[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if got := e.total("batserve_jobs"); got != 2 {
		t.Errorf("jobs across states = %v, want 2", got)
	}
	// Against an empty scrape the delta is the whole histogram: its bucket
	// counts end at _count, and p50 lies inside the histogram's range.
	h := histogramDelta(exposition{}, e, "batserve_store_append_seconds")
	if n := e["batserve_store_append_seconds_count"]; h.count != n || n == 0 || h.counts[len(h.counts)-1] != n {
		t.Fatalf("append histogram: count %v, +Inf bucket %v, exposition _count %v", h.count, h.counts[len(h.counts)-1], n)
	}
	if !math.IsInf(h.bounds[len(h.bounds)-1], 1) {
		t.Fatalf("last bound %v, want +Inf", h.bounds[len(h.bounds)-1])
	}
	if p50 := h.quantile(0.5); !(p50 > 0 && p50 < 10) {
		t.Fatalf("append p50 %v s", p50)
	}
}

func TestExpositionDeltasAndQuantiles(t *testing.T) {
	parse := func(s string) exposition {
		e, err := parseExposition(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	before := parse(`# HELP x
ops_total 10
lat_bucket{route="a",le="0.001"} 1
lat_bucket{route="a",le="0.002"} 1
lat_bucket{route="a",le="+Inf"} 1
lat_sum{route="a"} 0.0005
lat_count{route="a"} 1
`)
	after := parse(`ops_total 25
lat_bucket{route="a",le="0.001"} 3
lat_bucket{route="a",le="0.002"} 5
lat_bucket{route="a",le="+Inf"} 5
lat_sum{route="a"} 0.0065
lat_count{route="a"} 5
lat_bucket{route="b",le="0.001"} 0
lat_bucket{route="b",le="0.002"} 4
lat_bucket{route="b",le="+Inf"} 5
lat_sum{route="b"} 0.012
lat_count{route="b"} 5
`)
	if d := delta(before, after, "ops_total"); d != 15 {
		t.Fatalf("counter delta %v, want 15", d)
	}
	// The phase added 2 + 2 + 0 observations on route a and 0 + 4 + 1 on
	// route b: 2 at most 1 ms, 6 more at most 2 ms, 1 above.
	h := histogramDelta(before, after, "lat")
	if h.count != 9 || math.Abs(h.sum-0.018) > 1e-12 {
		t.Fatalf("count %v sum %v, want 9 and 0.018", h.count, h.sum)
	}
	// Rank 4.5 falls in (1 ms, 2 ms] between cumulative counts 2 and 8.
	if p50, want := h.quantile(0.5), 0.001+0.001*(4.5-2)/(8-2); math.Abs(p50-want) > 1e-12 {
		t.Fatalf("p50 %v, want %v", p50, want)
	}
	if p99 := h.quantile(0.99); p99 != 0.002 {
		t.Fatalf("p99 in the +Inf bucket reads %v, want the largest finite bound", p99)
	}
	if _, err := parseExposition(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("a line without a value parsed")
	}
}
