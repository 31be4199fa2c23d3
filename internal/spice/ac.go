package spice

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/netlist"
	"repro/internal/solver"
)

// ACSolution holds the complex node voltages at one frequency.
type ACSolution struct {
	e    *Engine
	Freq float64
	X    []complex128
}

// V returns the complex small-signal voltage of the named node.
func (s *ACSolution) V(name string) complex128 {
	id, ok := s.e.Ckt.NodeByName(name)
	if !ok {
		panic(fmt.Sprintf("spice: unknown node %q", name))
	}
	if id == netlist.Ground {
		return 0
	}
	return s.X[int(id)-1]
}

// MagDB returns the magnitude of the named node in decibels.
func (s *ACSolution) MagDB(name string) float64 {
	return 20 * math.Log10(cmplx.Abs(s.V(name)))
}

// AC performs a small-signal analysis at the given frequencies: the
// circuit is linearised around op (typically from Engine.OP), the element
// named source provides a unit-magnitude excitation, and the complex MNA
// system is solved per frequency.
func (e *Engine) AC(op *Solution, source string, freqs []float64) ([]*ACSolution, error) {
	if _, ok := e.auxOf[source]; !ok {
		// Current-source excitations have no aux; verify existence.
		if e.Ckt.Element(source) == nil {
			return nil, fmt.Errorf("spice: AC source %q not found", source)
		}
	}
	// The complex matrix, right-hand side and factorisation workspace
	// live on the engine and are reused across every frequency point and
	// every sweep; only the per-point solution vector (which ACSolution
	// retains) is allocated. Factor-then-solve through the workspace is
	// bit-identical to the combined CSolve this loop used to call.
	if e.acA == nil {
		e.acA = solver.NewCMatrix(e.nUnknowns)
		e.acB = make([]complex128, e.nUnknowns)
		e.aclu = solver.NewCLU(e.nUnknowns)
	}
	a, b := e.acA, e.acB
	ctx := &netlist.ACContext{Source: source, XDense: op.X, ADense: a.A, BDense: b, N: a.N}
	out := make([]*ACSolution, 0, len(freqs))
	for _, f := range freqs {
		a.Zero()
		for i := range b {
			b[i] = 0
		}
		ctx.Omega = 2 * math.Pi * f
		for i, el := range e.Ckt.Elems {
			ac, ok := el.(netlist.ACStamper)
			if !ok {
				return nil, fmt.Errorf("spice: element %s has no AC model", el.Name())
			}
			ac.StampAC(ctx, e.auxBase[i])
		}
		// The same tiny node leak as the large-signal analyses keeps
		// AC-floating nodes solvable.
		for i := 0; i < e.nNodeVars; i++ {
			a.Add(i, i, 1e-12)
		}
		if err := e.aclu.Refactor(a); err != nil {
			return nil, fmt.Errorf("spice: AC at %g Hz: %w", f, err)
		}
		x := e.aclu.SolveInto(make([]complex128, e.nUnknowns), b)
		out = append(out, &ACSolution{e: e, Freq: f, X: x})
	}
	return out, nil
}

// LogSpace returns n logarithmically spaced frequencies from f0 to f1.
func LogSpace(f0, f1 float64, n int) []float64 {
	if n < 2 {
		return []float64{f0}
	}
	out := make([]float64, n)
	l0, l1 := math.Log10(f0), math.Log10(f1)
	for i := range out {
		out[i] = math.Pow(10, l0+(l1-l0)*float64(i)/float64(n-1))
	}
	return out
}
