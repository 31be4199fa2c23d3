package spice

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/solver"
)

// ErrNotLinear is returned by NewNominalFactor for circuits with
// nonlinear elements: their DC matrix depends on the operating point,
// so there is no single nominal factorization to correct against.
var ErrNotLinear = errors.New("spice: circuit is not linear")

// NominalFactor is an immutable, shareable factorization of one linear
// circuit's DC system — the "factor the nominal matrix once per
// (circuit, mode)" half of the low-rank fault-update path. It captures
// the assembled MNA matrix (convergence leak included), the right-hand
// side and a sparse factorization, all frozen at construction; every
// later operation is read-only, so any number of goroutines may solve
// fault variants against one NominalFactor concurrently.
//
// The embedded engine exists only for its name tables (node → unknown,
// vsource → aux index) and is never run again after construction.
type NominalFactor struct {
	e   *Engine
	a   *solver.Matrix
	b   []float64
	lu  *solver.SparseLU
	opt Options
}

// NewNominalFactor assembles and factors the DC system of ckt. The
// circuit must be entirely linear (ErrNotLinear otherwise — resistors,
// capacitors and independent sources only), because only then is the
// matrix iterate-independent and the factorization reusable for every
// fault variant. The options' numeric fields (tolerances, MaxIter,
// MaxStep, Gmin) govern the damped-walk replica in SolveUpdated;
// Metrics and OPTrace are deliberately dropped so a cached factor never
// holds one caller's observer.
func NewNominalFactor(ckt *netlist.Circuit, opt Options) (*NominalFactor, error) {
	opt.Metrics = nil
	opt.OPTrace = nil
	// Materialise the circuit's lazy element-name index now, while the
	// factor is still private: fault planning against Ckt() looks
	// elements up by name, and a first lookup would otherwise write the
	// index from whichever goroutines share the factor.
	ckt.Element("")
	e := New(ckt, opt)
	prog := e.prog(netlist.DCOp)
	for _, seg := range prog.Segs {
		if !seg.Linear {
			return nil, fmt.Errorf("%w: %d nonlinear stamp items", ErrNotLinear, seg.To-seg.From)
		}
	}
	// Assemble at the zero iterate — for a linear circuit the matrix and
	// right-hand side are the same at every iterate, so this is the
	// system every Newton iteration of the classic path solves.
	e.beginSolve(netlist.DCOp, 0, 0, opt.Gmin, 1, e.zeros)
	e.assemble(e.zeros)
	nf := &NominalFactor{
		e:   e,
		a:   e.a.Clone(),
		b:   append([]float64(nil), e.b...),
		lu:  e.sparseLU(netlist.DCOp),
		opt: opt,
	}
	// Factor twice: the first Refactor runs dense and learns the pivot
	// sequence, the second runs (and verifies) the sparse replay, which
	// also arms the sparse triangular solves every fault solve uses.
	for i := 0; i < 2; i++ {
		if _, err := nf.lu.Refactor(nf.a); err != nil {
			return nil, fmt.Errorf("spice: nominal factorization: %w", err)
		}
	}
	return nf, nil
}

// Ckt returns the factored circuit (read-only by contract).
func (nf *NominalFactor) Ckt() *netlist.Circuit { return nf.e.Ckt }

// UpdateFor converts elements a fault plan would add into a low-rank
// conductance update against this factorization. ok is false when any
// element is not expressible as a pure conductance between existing
// unknowns in DC — aux-bearing elements, nonlinear devices — in which
// case the caller must take the full rebuild path. Mode-gated elements
// that stamp nothing at DC (the near-miss model's capacitor) are
// skipped rather than rejected.
func (nf *NominalFactor) UpdateFor(added []netlist.Element) (solver.LowRankUpdate, bool) {
	var upd solver.LowRankUpdate
	nNode := nf.e.nNodeVars
	for _, el := range added {
		if g, ok := el.(netlist.ModeGated); ok && g.InactiveIn(netlist.DCOp) {
			continue
		}
		if el.NumAux() > 0 {
			return solver.LowRankUpdate{}, false
		}
		gs, ok := el.(netlist.GStamper)
		if !ok {
			return solver.LowRankUpdate{}, false
		}
		a, b, g, ok := gs.ConductanceStamp(netlist.DCOp)
		if !ok {
			return solver.LowRankUpdate{}, false
		}
		i, j := int(a)-1, int(b)-1
		if i >= nNode || j >= nNode {
			return solver.LowRankUpdate{}, false // node unknown to this factor
		}
		if i < 0 && j < 0 {
			continue // both terminals grounded: no stamp at all
		}
		if i < 0 {
			i, j = j, solver.GroundTerm
		} else if j < 0 {
			j = solver.GroundTerm
		}
		upd.Terms = append(upd.Terms, solver.UpdateTerm{I: i, J: j, G: g})
	}
	return upd, true
}

// SolveUpdated computes the DC operating point of the nominal circuit
// plus the given conductance update, using the shared factorization and
// a Sherman–Morrison–Woodbury correction instead of rebuilding and
// refactoring the faulted system. Errors — ill-conditioned correction,
// excessive residual, walk non-convergence — mean "fall back to the
// classic path", which will either solve the system from scratch or
// reproduce the genuine failure with classic semantics.
//
// The returned Solution matches the classic path within the Newton
// convergence contract, not bit-for-bit: the classic path's converged
// iterate is its final LU solve vector walked to under MaxStep damping,
// and this replica runs the identical damped walk against the SMW
// solve vector, which agrees with the LU vector to solver accuracy
// (one refinement pass) — far inside the AbsTol/RelTol contract. See
// DESIGN.md §10 for why every consumer quantizes the difference away.
func (nf *NominalFactor) SolveUpdated(upd solver.LowRankUpdate) (*Solution, error) {
	us, err := solver.NewUpdatedSolver(nf.lu, nf.a, upd)
	if err != nil {
		return nil, err
	}
	n := nf.e.nUnknowns
	xNew := make([]float64, n)
	us.SolveInto(xNew, nf.b)
	for _, v := range xNew {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite updated solution", solver.ErrIllConditioned)
		}
	}
	// Post-solve sanity: the refined SMW solution must satisfy the
	// updated system to far better than the Newton voltage tolerance,
	// or the correction cannot be trusted (condition guard nearly
	// saturated, catastrophic cancellation in the capacitance solve).
	scale := solver.NormInf(nf.b)
	if scale < 1 {
		scale = 1
	}
	if res := us.ResidualInf(xNew, nf.b); !(res <= 1e-9*scale) {
		return nil, fmt.Errorf("%w: residual %.3g", solver.ErrIllConditioned, res)
	}
	// Damped-walk replica of Engine.newton for a linear system: the
	// classic path re-solves the same system every iteration, so its
	// per-iteration solve target is constant — walking the same clamped
	// steps against the SMW target reproduces the trajectory (and the
	// convergence decision) with the target's accuracy.
	o := nf.opt
	x := make([]float64, n)
	nNode := nf.e.nNodeVars
	for iter := 0; iter < o.MaxIter; iter++ {
		conv := true
		for i := 0; i < n; i++ {
			dx := xNew[i] - x[i]
			if i < nNode {
				if dx > o.MaxStep {
					dx = o.MaxStep
					conv = false
				} else if dx < -o.MaxStep {
					dx = -o.MaxStep
					conv = false
				}
				if math.Abs(dx) > o.AbsTol+o.RelTol*math.Abs(x[i]) {
					conv = false
				}
			} else {
				if math.Abs(dx) > 1e-9+o.RelTol*math.Abs(x[i]) {
					conv = false
				}
			}
			x[i] += dx
		}
		if conv {
			return &Solution{e: nf.e, X: x}, nil
		}
	}
	return nil, ErrNoConvergence
}
