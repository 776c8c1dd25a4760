// Package dkibam implements the discretized Kinetic Battery Model (dKiBaM)
// of Section 2.3 of the DSN 2009 battery-scheduling paper.
//
// Time is discretized in steps of size T minutes; the total charge in N
// units of size Gamma = C/N ampere-minutes; the height difference between
// the wells in units of size Delta = Gamma/c. Discharging subtracts charge
// units from the total and adds height-difference units; the recovery
// process decreases the height difference by one unit every
//
//	recovTime[m] = round( ln(m/(m-1)) / (k' T) )
//
// steps (Eq. (6) divided by T and rounded to the nearest integer), a
// countdown that runs continuously, also while the battery is discharging.
// The battery is empty when c*n <= (1-c)*m (Eq. (8)), evaluated with c as a
// per-mille integer exactly like the guard in the timed-automata model:
// (1000-c)*m >= c*n.
package dkibam

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"batsched/internal/battery"
)

// Paper discretization constants (Section 5): T = 0.01 min and
// Gamma = 0.01 A·min, which yields height-difference units of
// Gamma/c ≈ 0.06 A·min.
const (
	// PaperStepMin is the paper's time-step size T in minutes.
	PaperStepMin = 0.01
	// PaperUnitAmpMin is the paper's charge-unit size Gamma in A·min.
	PaperUnitAmpMin = 0.01
)

// Discretization holds the precomputed integer tables of one battery type.
type Discretization struct {
	// Params are the continuous battery parameters.
	Params battery.Params
	// StepMin is the time step T in minutes.
	StepMin float64
	// UnitAmpMin is the charge unit Gamma in A·min.
	UnitAmpMin float64
	// N is the battery capacity in charge units.
	N int
	// CMille is the available-charge fraction c scaled to per-mille, as in
	// the guard (1000-c)*m >= c*n of the timed-automata model.
	CMille int
	// RecovTime[m] is the number of steps needed to decrease the height
	// difference from m to m-1 units, for m >= 2. RecovTime[0] and
	// RecovTime[1] are zero and must never be consulted: at m <= 1 there is
	// no recovery (Eq. (6) diverges at m = 1).
	RecovTime []int
}

// Discretization errors.
var (
	ErrBadStep       = errors.New("dkibam: step size must be positive")
	ErrBadUnit       = errors.New("dkibam: charge unit must be positive")
	ErrCapacityGrain = errors.New("dkibam: capacity is not an integer number of charge units")
)

// discCacheCap bounds the process-wide table cache: requests may carry any
// custom battery, so the cache is cleared whenever it is full. The paper's
// workloads need a handful of entries (two presets on a few grids).
const discCacheCap = 64

// discKey identifies one table: the full parameter value (Label included,
// so a cached table is field for field what a fresh build returns) and the
// grid.
type discKey struct {
	p                   battery.Params
	stepMin, unitAmpMin float64
}

var discCache struct {
	sync.Mutex
	m map[discKey]*Discretization
}

// Discretize returns the integer tables for a battery on the given grid.
//
// The tables depend only on (p, stepMin, unitAmpMin), so they are built at
// most once per key and shared process-wide: repeated calls, every battery
// of a bank and every artifact on the same grid get the same pointer. The
// result is therefore immutable — callers must not write to any of its
// fields, RecovTime included. Errors are not cached.
func Discretize(p battery.Params, stepMin, unitAmpMin float64) (*Discretization, error) {
	k := discKey{p, stepMin, unitAmpMin}
	discCache.Lock()
	d, ok := discCache.m[k]
	discCache.Unlock()
	if ok {
		return d, nil
	}
	d, err := discretize(p, stepMin, unitAmpMin)
	if err != nil {
		return nil, err
	}
	discCache.Lock()
	defer discCache.Unlock()
	// A concurrent caller may have built the same key meanwhile; keep the
	// first table so every caller shares one pointer.
	if prev, ok := discCache.m[k]; ok {
		return prev, nil
	}
	if discCache.m == nil || len(discCache.m) >= discCacheCap {
		discCache.m = make(map[discKey]*Discretization, discCacheCap)
	}
	discCache.m[k] = d
	return d, nil
}

// discretize builds the tables of Discretize without the cache.
func discretize(p battery.Params, stepMin, unitAmpMin float64) (*Discretization, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(stepMin > 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadStep, stepMin)
	}
	if !(unitAmpMin > 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadUnit, unitAmpMin)
	}
	nf := p.Capacity / unitAmpMin
	n := math.Round(nf)
	if math.Abs(nf-n) > 1e-6 || n < 1 {
		return nil, fmt.Errorf("%w: C=%v, Gamma=%v", ErrCapacityGrain, p.Capacity, unitAmpMin)
	}
	d := &Discretization{
		Params:     p,
		StepMin:    stepMin,
		UnitAmpMin: unitAmpMin,
		N:          int(n),
		CMille:     int(math.Round(p.C * 1000)),
	}
	// The height difference can never exceed the number of charge units ever
	// drawn, which is at most N; the extra headroom guards the transient in
	// which a multi-unit draw overshoots before the empty check.
	maxM := d.N + 64
	d.RecovTime = make([]int, maxM+1)
	for m := 2; m <= maxM; m++ {
		t := math.Log(float64(m)/float64(m-1)) / (p.KPrime * stepMin)
		steps := int(math.Round(t))
		if steps < 1 {
			// Rounding to zero would mean an infinite recovery rate. Scale T
			// down if this clamp matters for your configuration.
			steps = 1
		}
		d.RecovTime[m] = steps
	}
	return d, nil
}

// MustDiscretize is Discretize but panics on error.
func MustDiscretize(p battery.Params, stepMin, unitAmpMin float64) *Discretization {
	d, err := Discretize(p, stepMin, unitAmpMin)
	if err != nil {
		panic(err)
	}
	return d
}

// PaperDiscretization discretizes a battery on the paper's grid
// (T = 0.01 min, Gamma = 0.01 A·min).
func PaperDiscretization(p battery.Params) (*Discretization, error) {
	return Discretize(p, PaperStepMin, PaperUnitAmpMin)
}

// RecoveryMinutes returns the continuous (unrounded) recovery time of
// Eq. (6) for height difference m, in minutes.
func (d *Discretization) RecoveryMinutes(m int) float64 {
	if m < 2 {
		return math.Inf(1)
	}
	return math.Log(float64(m)/float64(m-1)) / d.Params.KPrime
}

// Minutes converts a step count to minutes.
func (d *Discretization) Minutes(steps int) float64 { return float64(steps) * d.StepMin }

// Steps converts minutes to a step count, which must be integral.
func (d *Discretization) Steps(minutes float64) (int, error) {
	v := minutes / d.StepMin
	r := math.Round(v)
	if math.Abs(v-r) > 1e-6 {
		return 0, fmt.Errorf("dkibam: %v min is not a multiple of T=%v", minutes, d.StepMin)
	}
	return int(r), nil
}

// Cell is the discrete state of one battery. The zero value is not
// meaningful; use FullCell.
type Cell struct {
	// N is the remaining total charge in units (the paper's n_gamma).
	N int
	// M is the height difference in units (the paper's m_delta).
	M int
	// CRecov counts steps since the recovery clock was last reset. It is
	// only meaningful while M >= 2 and is kept at zero otherwise so that
	// equal physical states compare equal.
	CRecov int
	// CDisch counts steps since the battery was switched on or since its
	// last draw; only meaningful while the battery is discharging.
	CDisch int
	// Empty records that the battery has been observed empty. Per Section
	// 4.3 an empty battery can still recover charge but may not be used
	// again.
	Empty bool
}

// FullCell returns the state of a freshly charged battery.
func FullCell(d *Discretization) Cell {
	return Cell{N: d.N}
}

// IsEmptyCondition evaluates the integer empty criterion (8):
// (1000-c)*m >= c*n.
func (d *Discretization) IsEmptyCondition(c Cell) bool {
	return (1000-d.CMille)*c.M >= d.CMille*c.N
}

// AvailableMille returns 1000 * y1 / Gamma, an integer proportional to the
// available charge y1 = Gamma*(c*n - (1-c)*m). The best-of-two scheduler
// compares this quantity across batteries.
func (d *Discretization) AvailableMille(c Cell) int {
	return d.CMille*c.N - (1000-d.CMille)*c.M
}

// TotalAmpMin returns the remaining total charge gamma in A·min.
func (d *Discretization) TotalAmpMin(c Cell) float64 {
	return float64(c.N) * d.UnitAmpMin
}

// AvailableAmpMin returns the available charge y1 in A·min.
func (d *Discretization) AvailableAmpMin(c Cell) float64 {
	return float64(d.AvailableMille(c)) * d.UnitAmpMin / 1000
}

// AdvanceRecoveryClock advances the recovery countdown of the cell by one
// step. Call exactly once per time step, before the step's boundary events
// (draws and recovery decrements); the clock only runs while the cell is in
// active recovery (M >= 2).
func (c *Cell) AdvanceRecoveryClock() {
	if c.M >= 2 {
		c.CRecov++
	} else {
		c.CRecov = 0
	}
}

// ApplyRecovery fires recovery decrements whose countdown has elapsed. After
// a draw bumps M upward, the threshold recovTime[M] may drop below an
// already-running countdown; the decrement then fires in the same instant
// (urgency semantics, see internal/lpta). The recovery clock is kept at zero
// while M < 2 so that equal physical states compare equal.
func (d *Discretization) ApplyRecovery(c *Cell) {
	for c.M >= 2 && c.CRecov >= d.RecovTime[c.M] {
		c.M--
		c.CRecov = 0
	}
	if c.M < 2 {
		c.CRecov = 0
	}
}

// Draw removes units charge units from the cell and adds them to the height
// difference, resetting the recovery countdown when the cell enters active
// recovery (M going from <=1 to >=2), exactly like the height-difference
// automaton of Figure 5(b). The caller is responsible for applying recovery
// and evaluating the empty condition afterwards; see System.step for the
// canonical event order within one instant.
func (d *Discretization) Draw(c *Cell, units int) {
	wasInactive := c.M < 2
	c.N -= units
	c.M += units
	if wasInactive && c.M >= 2 {
		c.CRecov = 0
	}
	c.CDisch = 0
}
