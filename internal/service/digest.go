package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"batsched/internal/spec"
	"batsched/internal/sweep"
)

// The content-addressed unit of the result store is a single scenario cell:
// one (grid, bank, load, solver) combination, i.e. one NDJSON result line.
// A cell digest covers exactly what determines that line's bytes:
//
//   - the resolved display names of the grid, bank, load, and solver — the
//     names label the line, so cells with different labels must never share
//     an entry even when the physics agree;
//   - the resolved physics: grid sizes, battery parameters, load epochs —
//     so a preset and its spelled-out parameters share a digest when their
//     labels agree;
//   - the solver's canonical registry identity (aliases collapse) with its
//     compacted parameters — a montecarlo seed or an optimal-ta budget
//     changes the output without changing any display name.
//
// Sweep workers are deliberately excluded: results are emitted in
// deterministic order regardless of pool size, so the same cell evaluated
// under any worker count produces the same bytes. So is the surrounding
// request: which other cells a sweep happens to carry cannot change this
// cell's line, which is exactly what lets overlapping sweeps share entries.
//
// All fields are hashed in a binary form — length-prefixed strings, IEEE
// float bits — both so that no choice of characters inside a user-supplied
// name can mimic a field boundary and so that digesting a large grid stays
// allocation-lean (the fmt-based hashing this replaces dominated the jobs
// submit path).

// digestVersion tags every cell preimage; bump on incompatible layout
// changes so stale file-backed stores go inert instead of serving
// mislabeled bytes.
const digestVersion = "cell-digest-v1"

// component is the digest of one cell axis (grid, bank, load, or solver).
// Cells combine precomputed components, so an axis is hashed once per sweep
// instead of once per cell — a load with hundreds of epochs appearing in
// 100 cells is hashed one time, not 100.
type component = [sha256.Size]byte

// preimage accumulates binary fields for one hash; buffers are pooled
// because digesting runs on the request hot path.
type preimage struct{ buf []byte }

var preimagePool = sync.Pool{New: func() any { return new(preimage) }}

func (p *preimage) tag(b byte) { p.buf = append(p.buf, b) }

func (p *preimage) str(s string) {
	p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(len(s)))
	p.buf = append(p.buf, s...)
}

func (p *preimage) f64(v float64) {
	p.buf = binary.LittleEndian.AppendUint64(p.buf, math.Float64bits(v))
}

func (p *preimage) sum() component { return sha256.Sum256(p.buf) }

// CellDigests expands a sweep request and returns the content digest of
// every scenario cell in the sweep's deterministic order (grid, bank, load,
// solver — the same order the results stream in), plus the whole-request
// digest, which is the digest of the ordered cell-digest list. Two requests
// agree on the request digest exactly when they agree on every cell, which
// is why serving a request from its stored cells is a byte-identical
// replay.
func CellDigests(req SweepRequest) (cells []string, request string, err error) {
	sp, err := req.Scenario.Compile()
	if err != nil {
		return nil, "", &InvalidRequestError{Err: err}
	}
	return cellDigestsCompiled(sp, req.Scenario.Solvers)
}

// cellDigestsCompiled is CellDigests for an already-compiled scenario; the
// service's sweep path uses it to avoid compiling the spec twice. solvers
// must be the spec solvers that produced sp.Policies (same order).
func cellDigestsCompiled(sp sweep.Spec, solvers []spec.Solver) (cells []string, request string, err error) {
	grids := append([]sweep.GridSpec(nil), sp.Grids...)
	if len(grids) == 0 {
		grids = []sweep.GridSpec{sweep.PaperGrid()}
	}
	for i := range grids {
		if grids[i].Name == "" {
			// Mirror sweep.Run's default naming so the digest sees the same
			// labels the results will carry.
			grids[i].Name = fmt.Sprintf("T%g-G%g", grids[i].StepMin, grids[i].UnitAmpMin)
		}
	}

	p := preimagePool.Get().(*preimage)
	defer preimagePool.Put(p)
	comp := func(fill func()) component {
		p.buf = p.buf[:0]
		p.str(digestVersion)
		fill()
		return p.sum()
	}

	gridComp := make([]component, len(grids))
	for i, g := range grids {
		gridComp[i] = comp(func() {
			p.tag('G')
			p.str(g.Name)
			p.f64(g.StepMin)
			p.f64(g.UnitAmpMin)
		})
	}
	bankComp := make([]component, len(sp.Banks))
	for i, b := range sp.Banks {
		bankComp[i] = comp(func() {
			p.tag('B')
			p.str(b.Name)
			for _, bat := range b.Batteries {
				p.f64(bat.Capacity)
				p.f64(bat.C)
				p.f64(bat.KPrime)
			}
		})
	}
	loadComp := make([]component, len(sp.Loads))
	for i, l := range sp.Loads {
		loadComp[i] = comp(func() {
			p.tag('L')
			p.str(l.Name)
			for j := 0; j < l.Load.Len(); j++ {
				s := l.Load.Segment(j)
				p.f64(s.Duration)
				p.f64(s.Current)
			}
		})
	}
	solverComp := make([]component, len(sp.Policies))
	for i, s := range solvers {
		cs, err := spec.CanonicalSolver(s)
		if err != nil {
			return nil, "", &InvalidRequestError{Err: err}
		}
		solverComp[i] = comp(func() {
			p.tag('S')
			p.str(cs.Name)
			p.str(string(cs.Params))
			p.str(sp.Policies[i].Name)
		})
	}

	// All cell digests are hex-encoded into one flat buffer converted to a
	// single string, then sliced per cell: one allocation for the whole
	// grid instead of one per cell (strings share backing storage).
	n := len(grids) * len(sp.Banks) * len(sp.Loads) * len(sp.Policies)
	const hexLen = 2 * sha256.Size
	hexBuf := make([]byte, 0, n*hexLen)
	req := sha256.New()
	req.Write([]byte("sweep-digest-v2"))
	for g := range grids {
		for b := range sp.Banks {
			for l := range sp.Loads {
				for s := range sp.Policies {
					p.buf = p.buf[:0]
					p.str(digestVersion)
					p.tag('C')
					p.buf = append(p.buf, gridComp[g][:]...)
					p.buf = append(p.buf, bankComp[b][:]...)
					p.buf = append(p.buf, loadComp[l][:]...)
					p.buf = append(p.buf, solverComp[s][:]...)
					d := p.sum()
					req.Write(d[:])
					hexBuf = hex.AppendEncode(hexBuf, d[:])
				}
			}
		}
	}
	all := string(hexBuf)
	cells = make([]string, n)
	for i := range cells {
		cells[i] = all[i*hexLen : (i+1)*hexLen]
	}
	return cells, hex.EncodeToString(req.Sum(nil)), nil
}

// DigestSweep returns the content digest of a sweep request — a job's
// digest — plus the number of scenario cells the request expands to. The digest is derived from the per-cell digests; see
// CellDigests for the keying rule.
func DigestSweep(req SweepRequest) (digest string, cases int, err error) {
	cells, request, err := CellDigests(req)
	if err != nil {
		return "", 0, err
	}
	return request, len(cells), nil
}
