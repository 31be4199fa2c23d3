package solver

import (
	"errors"
	"fmt"
	"math"
)

// ErrIllConditioned is returned by NewUpdatedSolver and Reset when the
// Woodbury capacitance matrix is singular or too close to it for the
// correction to be trustworthy. Callers treat it as "this fault needs the full
// refactor path", not as a failure of the underlying system: the
// updated matrix may be perfectly solvable from scratch even when the
// low-rank correction against this particular base is not.
var ErrIllConditioned = errors.New("solver: low-rank update ill-conditioned")

// GroundTerm marks the ground side of an UpdateTerm: the corresponding
// unit vector is dropped, leaving a conductance from unknown I to the
// reference.
const GroundTerm = -1

// UpdateTerm is one conductance delta g between MNA unknowns I and J —
// exactly the four-cell stamp a resistor writes: +g at (I,I) and (J,J),
// −g at (I,J) and (J,I). As a matrix it is the symmetric rank-1 term
// g·(e_I−e_J)(e_I−e_J)ᵀ; with J == GroundTerm the e_J part vanishes.
type UpdateTerm struct {
	I, J int
	G    float64
}

// LowRankUpdate is a set of conductance deltas against a nominal
// matrix: ΔA = Σ_t g_t·u_t·u_tᵀ with u_t = e_It − e_Jt, i.e. ΔA = U·Vᵀ
// with U's columns the u_t and V's columns g_t·u_t. Fault models that
// only add resistive bridges between existing nets reduce to exactly
// this shape, one term per bridge.
type LowRankUpdate struct {
	Terms []UpdateTerm
}

// Rank returns the number of terms (the k of the k×k capacitance
// matrix; individual terms are each rank 1).
func (u LowRankUpdate) Rank() int { return len(u.Terms) }

// condLimit is the κ∞ threshold above which the capacitance matrix is
// declared ill-conditioned. The guard protects the correction step
// z = C⁻¹·Vᵀy: at κ∞ ≈ 1e12 roughly twelve of the sixteen significant
// digits of z are noise, which is where the post-solve residual check
// in the consumers starts failing anyway — beyond it the fallback
// refactor path is both safer and barely slower.
const condLimit = 1e12

// UpdatedSolver solves (A + U·Vᵀ)x = b through the Sherman–Morrison–
// Woodbury identity against an already-factored nominal A:
//
//	x = y − W·C⁻¹·Vᵀy,  y = A⁻¹b,  W = A⁻¹U,  C = I + VᵀW
//
// The nominal SparseLU is used strictly read-only (SolveInto only), so
// any number of UpdatedSolvers — across goroutines — may share one
// factorization; each solver owns its own W, capacitance factor and
// scratch. Preparation (NewUpdatedSolver or Reset) performs the k
// nominal solves for W and the dense k×k factorization; each SolveInto
// then costs one nominal solve plus O(n·k), with one residual-refinement
// pass to pull the SMW result to the accuracy of a direct factorization.
// A solver is reusable: Reset re-prepares it for another update in the
// buffers the previous one left, growing them only when too small.
type UpdatedSolver struct {
	base *SparseLU
	// nom holds the nominal matrix values; together with base's stamp
	// pattern it computes residuals r = b − (A+UVᵀ)x sparsely for the
	// refinement pass, touching only pattern cells.
	nom   *Matrix
	terms []UpdateTerm
	k     int
	// w is W = A⁻¹U, column-major: column t at w[t*n : (t+1)*n].
	w    []float64
	capM *Matrix
	capF *LU
	// capScale is the ∞-norm of C's summands (|I| + |VᵀW| elementwise):
	// the magnitude the entries of C were formed from. Conditioning is
	// judged as capScale·‖C⁻¹‖∞ rather than ‖C‖∞·‖C⁻¹‖∞ — the two agree
	// up to the cancellation in C's sum, which is exactly what the guard
	// must see: a rank-1 C that cancels to 1e-14 has κ∞(C) = 1 but
	// amplifies the correction by 1e14.
	capScale float64
	y, r     []float64
	t, z     []float64
	// inv and e are capCondInf's scratch: C⁻¹ column-major and the unit
	// column (all zero between uses).
	inv, e []float64
}

// refinePasses is the number of iterative-refinement passes SolveInto
// runs after the plain SMW correction. Each pass costs one sparse
// residual, one nominal solve and one k×k solve, and squares down the
// correction error; one pass brings the solution to within a few ulps
// of the direct factorization for conductance updates far from the
// condition guard.
const refinePasses = 1

// NewUpdatedSolver prepares the Woodbury correction of upd against the
// factored nominal system: a new solver, then Reset.
func NewUpdatedSolver(base *SparseLU, nom *Matrix, upd LowRankUpdate) (*UpdatedSolver, error) {
	s := &UpdatedSolver{}
	if err := s.Reset(base, nom, upd); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-prepares s, in place, as the Woodbury correction of upd
// against the factored nominal system. base must hold a successful
// factorization of nom (they are not cross-checked beyond size). The
// scratch vectors and W grow only when too small, and the k×k
// capacitance buffers are kept when k is unchanged; the arithmetic is
// that of a fresh solver. Returns ErrIllConditioned (wrapped) when a
// term is non-finite, a term index is out of range, or the capacitance
// matrix is singular or has κ∞ > 1e12 — the caller's cue to refactor
// from scratch instead. After an error s must be Reset again before
// use.
func (s *UpdatedSolver) Reset(base *SparseLU, nom *Matrix, upd LowRankUpdate) error {
	n := base.N()
	if nom.N != n {
		return fmt.Errorf("solver: updated solver: nominal matrix is %d×%d, factorization is %d×%d", nom.N, nom.N, n, n)
	}
	k := len(upd.Terms)
	s.base, s.nom, s.k, s.capScale = base, nom, k, 0
	s.terms = append(s.terms[:0], upd.Terms...)
	s.y = Grow(s.y, n)
	// r doubles as the ±1 column scratch below, which must start zero.
	s.r = Grow(s.r, n)
	clear(s.r)
	if k == 0 {
		return nil // the update is empty; SolveInto degenerates to base
	}
	for _, t := range upd.Terms {
		if t.I < 0 || t.I >= n || t.J < GroundTerm || t.J >= n || t.I == t.J {
			return fmt.Errorf("%w: term (%d,%d) out of range for n=%d", ErrIllConditioned, t.I, t.J, n)
		}
		if math.IsNaN(t.G) || math.IsInf(t.G, 0) {
			return fmt.Errorf("%w: non-finite conductance %g", ErrIllConditioned, t.G)
		}
	}
	s.w = Grow(s.w, n*k)
	s.t = Grow(s.t, k)
	s.z = Grow(s.z, k)
	// W = A⁻¹U, one nominal solve per column; e is the ±1 column of U,
	// rebuilt (and re-zeroed) in place.
	e := s.r
	for t, term := range upd.Terms {
		e[term.I] = 1
		if term.J != GroundTerm {
			e[term.J] = -1
		}
		s.base.SolveInto(s.w[t*n:(t+1)*n], e)
		e[term.I] = 0
		if term.J != GroundTerm {
			e[term.J] = 0
		}
	}
	// C = I + VᵀW with v_s = g_s·(e_Is − e_Js):
	// C[s][t] = δ_st + g_s·(W_t[I_s] − W_t[J_s]).
	if s.capM == nil || s.capM.N != k {
		s.capM, s.capF = NewMatrix(k), NewLU(k)
	}
	for row, vs := range upd.Terms {
		rowAbs := 0.0
		for col := 0; col < k; col++ {
			wc := s.w[col*n : (col+1)*n]
			d := wc[vs.I]
			if vs.J != GroundTerm {
				d -= wc[vs.J]
			}
			c := vs.G * d
			rowAbs += math.Abs(c)
			if row == col {
				c += 1
				rowAbs += 1
			}
			s.capM.Set(row, col, c)
		}
		s.capScale = math.Max(s.capScale, rowAbs)
	}
	if err := s.capF.Refactor(s.capM); err != nil {
		return fmt.Errorf("%w: capacitance matrix: %v", ErrIllConditioned, err)
	}
	if cond := s.capCondInf(); cond > condLimit {
		return fmt.Errorf("%w: capacitance matrix κ∞ ≈ %.3g", ErrIllConditioned, cond)
	}
	return nil
}

// Grow returns buf resliced to length n, reallocated (zeroed) only when
// its capacity is too small; a reused buffer keeps its old contents.
func Grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// capCondInf bounds the correction's amplification as capScale·‖C⁻¹‖∞,
// with C⁻¹ built column by column from the factored C — k is a handful,
// so the k² solve cost is noise next to the nominal solves. Using the
// summand scale rather than ‖C‖∞ makes the bound ≥ κ∞(C) and, unlike
// κ∞, sensitive to cancellation inside C itself (the near-singular
// updated-matrix case, where C's entries are tiny differences of
// O(1)-or-larger summands).
func (s *UpdatedSolver) capCondInf() float64 {
	k := s.k
	s.inv = Grow(s.inv, k*k) // column-major C⁻¹
	s.e = Grow(s.e, k)
	inv, e := s.inv, s.e
	for j := 0; j < k; j++ {
		e[j] = 1
		s.capF.SolveInto(inv[j*k:(j+1)*k], e)
		e[j] = 0
	}
	var normInv float64
	for i := 0; i < k; i++ {
		var row float64
		for j := 0; j < k; j++ {
			row += math.Abs(inv[j*k+i])
		}
		normInv = math.Max(normInv, row)
	}
	return s.capScale * normInv
}

// Rank returns the update's term count.
func (s *UpdatedSolver) Rank() int { return s.k }

// correct applies the Woodbury correction in place: given x = A⁻¹rhs,
// it subtracts W·C⁻¹·Vᵀx so that x becomes (A+UVᵀ)⁻¹rhs.
func (s *UpdatedSolver) correct(x []float64) {
	n := s.base.N()
	for i, term := range s.terms {
		d := x[term.I]
		if term.J != GroundTerm {
			d -= x[term.J]
		}
		s.t[i] = term.G * d
	}
	s.capF.SolveInto(s.z, s.t)
	for t := 0; t < s.k; t++ {
		if s.z[t] == 0 {
			continue
		}
		zt := s.z[t]
		wc := s.w[t*n : (t+1)*n]
		for i, wv := range wc {
			x[i] -= zt * wv
		}
	}
}

// residualInto writes r = b − (A+UVᵀ)·x using the nominal values over
// the stamp pattern plus the update terms — no dense n² pass.
func (s *UpdatedSolver) residualInto(r, x, b []float64) {
	n := s.base.N()
	copy(r, b)
	a := s.nom.A
	for _, f := range s.base.pat.idx {
		i, j := int(f)/n, int(f)%n
		r[i] -= a[f] * x[j]
	}
	for _, term := range s.terms {
		d := x[term.I]
		if term.J != GroundTerm {
			d -= x[term.J]
		}
		d *= term.G
		r[term.I] -= d
		if term.J != GroundTerm {
			r[term.J] += d
		}
	}
}

// ResidualInf returns ‖b − (A+UVᵀ)x‖∞ — the consumers' cheap
// post-solve sanity check before trusting an updated solution.
func (s *UpdatedSolver) ResidualInf(x, b []float64) float64 {
	s.residualInto(s.r, x, b)
	return NormInf(s.r)
}

// SolveInto solves (A + UVᵀ)·x = b into the caller-provided x (len n),
// then runs the refinement pass. b is not modified; x must not
// alias b (panics on the exact-overlap case) and must not alias the
// solver's own scratch. Safe for concurrent use only in the sense that
// distinct UpdatedSolvers never interfere; one solver is single-
// goroutine, like the LU workspaces.
func (s *UpdatedSolver) SolveInto(x, b []float64) []float64 {
	checkNoAlias(x, b)
	s.base.SolveInto(x, b)
	if s.k == 0 {
		return x
	}
	s.correct(x)
	for pass := 0; pass < refinePasses; pass++ {
		s.residualInto(s.r, x, b)
		s.base.SolveInto(s.y, s.r)
		s.correct(s.y)
		for i := range x {
			x[i] += s.y[i]
		}
	}
	return x
}

// Solve returns x with (A + UVᵀ)·x = b. b is not modified.
func (s *UpdatedSolver) Solve(b []float64) []float64 {
	return s.SolveInto(make([]float64, s.base.N()), b)
}
