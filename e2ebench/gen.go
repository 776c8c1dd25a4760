package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"batsched"
)

// Every request body the benchmark sends is a pure function of the seed and
// the operation index: each (stream, index) pair gets its own PCG stream,
// so which client goroutine happens to issue an operation never changes
// its bytes.
const (
	streamCold uint64 = iota + 1
	streamPool
	streamResubmit
	streamJobs
	streamSession
	streamSample
)

func rng(seed, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<40|index))
}

// Both sweep banks hold 11 A·min, so a load drawing more than minLoadCharge
// over its horizon always outlives them: every cell then has a finite
// lifetime and no cell of a generated sweep can fail.
const (
	sweepHorizonMin = 200
	minLoadCharge   = 16.5
)

var (
	sweepBanks = []batsched.BankSpec{
		{Name: "2xB1", Battery: &batsched.BatterySpec{Preset: "B1"}, Count: 2},
		{Name: "1xB2", Battery: &batsched.BatterySpec{Preset: "B2"}, Count: 1},
	}
	sweepSolvers = []batsched.SolverSpec{{Name: "sequential"}, {Name: "bestof"}}
	// The paper grid and four coarser ones; every generated duration is a
	// multiple of 0.1 min, which all five step sizes divide.
	sweepGrids = []batsched.GridSpec{
		{},
		{StepMin: 0.02, UnitAmpMin: 0.02},
		{StepMin: 0.025, UnitAmpMin: 0.025},
		{StepMin: 0.05, UnitAmpMin: 0.05},
		{StepMin: 0.1, UnitAmpMin: 0.1},
	}
	sweepCurrents = []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5}
)

// cellsPerSweep is the cell count of every sweep operation: 2 banks × 10
// loads × 2 solvers × 5 grids.
const (
	loadsPerSweep = 10
	cellsPerSweep = 2 * loadsPerSweep * 2 * 5
	cellsPerLoad  = cellsPerSweep / loadsPerSweep
)

// sweepLoad draws alternating job and idle epochs of 0.5 to 3 minutes
// until the sweep horizon is covered. Draws whose total charge falls below
// minLoadCharge are discarded and redrawn from the same stream, so the
// load is still a function of the stream alone.
func sweepLoad(r *rand.Rand, name string) batsched.LoadSpec {
	for {
		var segs []batsched.SegmentSpec
		total, charge := 0.0, 0.0
		for on := true; total < sweepHorizonMin; on = !on {
			d := float64(1+r.IntN(6)) / 2
			seg := batsched.SegmentSpec{DurationMin: d}
			if on {
				seg.CurrentA = sweepCurrents[r.IntN(len(sweepCurrents))]
				charge += seg.CurrentA * d
			}
			segs = append(segs, seg)
			total += d
		}
		if charge >= minLoadCharge {
			return batsched.LoadSpec{Name: name, Segments: segs}
		}
	}
}

func sweepScenario(loads []batsched.LoadSpec) batsched.SweepRequest {
	return batsched.SweepRequest{
		Scenario: batsched.Scenario{
			Banks:   sweepBanks,
			Loads:   loads,
			Solvers: sweepSolvers,
			Grids:   sweepGrids,
		},
		// One worker per sweep, on every rung and on the wire: the server
		// then runs exactly one cell per client, and the in-process ladder
		// compares serial times.
		Workers: 1,
	}
}

// coldSweep is sweep-cold operation i: ten loads nobody has sent before.
func coldSweep(seed uint64, i int) batsched.SweepRequest {
	loads := make([]batsched.LoadSpec, loadsPerSweep)
	for j := range loads {
		loads[j] = sweepLoad(rng(seed, streamCold, uint64(i*loadsPerSweep+j)), fmt.Sprintf("cold-%d-%d", i, j))
	}
	return sweepScenario(loads)
}

// poolSize is the resubmit pool: the ten paper loads plus 30 generated ones.
const poolSize = 40

func poolLoads(seed uint64) []batsched.LoadSpec {
	var pool []batsched.LoadSpec
	for _, name := range batsched.PaperLoadNames() {
		pool = append(pool, batsched.LoadSpec{Paper: name})
	}
	for j := len(pool); j < poolSize; j++ {
		pool = append(pool, sweepLoad(rng(seed, streamPool, uint64(j)), fmt.Sprintf("pool-%d", j)))
	}
	return pool
}

// poolSweeps are the four sweeps that warm the store with every pool cell.
func poolSweeps(seed uint64) []batsched.SweepRequest {
	pool := poolLoads(seed)
	var out []batsched.SweepRequest
	for j := 0; j < len(pool); j += loadsPerSweep {
		out = append(out, sweepScenario(pool[j:j+loadsPerSweep]))
	}
	return out
}

// resubmitSweep is sweep-resubmit operation i: nine distinct pool loads and
// one novel load at a seeded position, so 180 of its 200 cells are in the
// warmed store and 20 are not.
func resubmitSweep(seed uint64, pool []batsched.LoadSpec, i int) batsched.SweepRequest {
	r := rng(seed, streamResubmit, uint64(i))
	pick := r.Perm(len(pool))[:loadsPerSweep-1]
	loads := make([]batsched.LoadSpec, 0, loadsPerSweep)
	for _, p := range pick {
		loads = append(loads, pool[p])
	}
	novel := sweepLoad(r, fmt.Sprintf("resub-%d", i))
	at := r.IntN(loadsPerSweep)
	loads = append(loads[:at], append([]batsched.LoadSpec{novel}, loads[at:]...)...)
	return sweepScenario(loads)
}

// An optimal job's cost grows with the scheduling decisions before its
// bank dies, and on a symmetric bank such as 3xB1 it is heavy-tailed: a few
// loads cost a thousand times the median. Job loads are therefore a fixed
// number of random jobs followed by a drain that empties any bank, on the
// mixed 2xB1+1xB2 bank, whose search cost varies within a small factor.
var (
	jobBank     = batsched.BankSpec{Name: "2xB1+1xB2", Batteries: []batsched.BatterySpec{{Preset: "B1"}, {Preset: "B1"}, {Preset: "B2"}}}
	jobCurrents = []float64{0.3, 0.4, 0.5, 0.6}
)

const (
	cellsPerJob = 4
	jobsPerLoad = 8
)

func jobLoad(r *rand.Rand, name string) batsched.LoadSpec {
	var segs []batsched.SegmentSpec
	for k := 0; k < jobsPerLoad; k++ {
		segs = append(segs,
			batsched.SegmentSpec{DurationMin: float64(1+r.IntN(4)) / 2, CurrentA: jobCurrents[r.IntN(len(jobCurrents))]},
			batsched.SegmentSpec{DurationMin: float64(1+r.IntN(4)) / 2})
	}
	// 60 A·min: more than any bank here holds.
	segs = append(segs, batsched.SegmentSpec{DurationMin: 30, CurrentA: 2})
	return batsched.LoadSpec{Name: name, Segments: segs}
}

// pinBank and pinLoad are the paper's dual-battery example: best-of-two
// lives 16.28 min on it and the optimal schedule 16.90 min (Table 5).
var (
	pinBank = batsched.BankSpec{Name: "2xB1", Battery: &batsched.BatterySpec{Preset: "B1"}, Count: 2}
	pinLoad = batsched.LoadSpec{Paper: "ILs alt"}
)

const (
	pinBestOf  = 16.28
	pinOptimal = 16.90
)

// optimalJob is optimal-jobs operation i. Operation 0 carries the paper pin
// as its first cell.
func optimalJob(seed uint64, i int) batsched.JobRequest {
	r := rng(seed, streamJobs, uint64(i))
	bank := jobBank
	var loads []batsched.LoadSpec
	if i == 0 {
		bank = pinBank
		loads = append(loads, pinLoad)
	}
	for j := len(loads); j < cellsPerJob; j++ {
		loads = append(loads, jobLoad(r, fmt.Sprintf("job-%d-%d", i, j)))
	}
	return batsched.JobRequest{
		Scenario: batsched.Scenario{
			Banks:   []batsched.BankSpec{bank},
			Loads:   loads,
			Solvers: []batsched.SolverSpec{{Name: "optimal"}},
		},
		Workers: 1,
	}
}

// Session devices: 64 live 2xB1 sessions cycling the four online policies.
const sessionDevices = 64

var sessionPolicies = []string{"sequential", "roundrobin", "greedy-soc", "efq"}

func sessionOpenBody(device int) []byte {
	return mustJSON(batsched.SessionSpec{
		Bank:   pinBank,
		Policy: batsched.SolverSpec{Name: sessionPolicies[device%len(sessionPolicies)]},
	})
}

// drawEvent is one session step: a current held for a duration (0 = idle).
type drawEvent struct {
	CurrentA    float64 `json:"current_a"`
	DurationMin float64 `json:"duration_min"`
}

// deviceStream is one device's endless seeded event stream. It outlives the
// sessions that serve it: when a bank dies the device reopens and its
// stream continues.
type deviceStream struct{ r *rand.Rand }

func newDeviceStream(seed uint64, device int) *deviceStream {
	return &deviceStream{r: rng(seed, streamSession, uint64(device))}
}

func (d *deviceStream) next() drawEvent {
	ev := drawEvent{DurationMin: float64(1+d.r.IntN(10)) / 10}
	if d.r.IntN(10) < 6 {
		ev.CurrentA = sweepCurrents[d.r.IntN(len(sweepCurrents))]
	}
	return ev
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the generators only build marshalable values
	}
	return b
}
