package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randPatterned builds a random sparse, diagonally dominant n×n system:
// a pattern with the full diagonal plus random symmetric off-diagonal
// pairs, and a matrix assembled with bounded off-diagonal values under
// a dominant diagonal — well-conditioned by construction, so solution
// comparisons between algorithms are meaningful at fixed tolerance.
func randPatterned(rng *rand.Rand, n int) (*Pattern, *Matrix) {
	pat := NewPattern(n)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		pat.Mark(i, i)
		m.Set(i, i, float64(n)+rng.Float64())
	}
	for c := 0; c < 3*n; c++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		pat.Mark(i, j)
		pat.Mark(j, i)
		v := rng.Float64()*2 - 1
		m.Set(i, j, v)
		m.Set(j, i, v)
	}
	return pat, m
}

// armedSparseLU factors m twice so the workspace has learnt the pivot
// sequence and armed the sparse triangular solves — the state a shared
// nominal factorization is in.
func armedSparseLU(t *testing.T, pat *Pattern, m *Matrix) *SparseLU {
	t.Helper()
	s := NewSparseLU(pat)
	for i := 0; i < 2; i++ {
		if _, err := s.Refactor(m.Clone()); err != nil {
			t.Fatalf("nominal refactor: %v", err)
		}
	}
	return s
}

// applyUpdate stamps the conductance terms of upd into m the way a
// resistor stamp would, producing the from-scratch reference matrix.
func applyUpdate(m *Matrix, upd LowRankUpdate) {
	for _, term := range upd.Terms {
		m.Add(term.I, term.I, term.G)
		if term.J != GroundTerm {
			m.Add(term.J, term.J, term.G)
			m.Add(term.I, term.J, -term.G)
			m.Add(term.J, term.I, -term.G)
		}
	}
}

// TestUpdatedSolverMatchesDirectFactor is the tentpole property test:
// over randomized patterned systems and randomized rank-1/rank-2
// conductance perturbations, the Sherman–Morrison–Woodbury path against
// the shared nominal factorization must agree with a from-scratch dense
// factorization of the perturbed matrix — both through the solution
// itself and through the perturbed-system residual.
func TestUpdatedSolverMatchesDirectFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	solved := 0
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(24)
		pat, m := randPatterned(rng, n)
		base := armedSparseLU(t, pat, m)

		k := 1 + rng.Intn(2)
		var upd LowRankUpdate
		for s := 0; s < k; s++ {
			i := rng.Intn(n)
			j := rng.Intn(n+1) - 1 // -1 = ground side
			for j == i {
				j = rng.Intn(n+1) - 1
			}
			// Positive and negative deltas across many decades: shorts
			// are huge conductances, near-misses tiny ones, and negative
			// terms model a resistance increase.
			g := math.Exp(rng.NormFloat64() * 3)
			if rng.Intn(4) == 0 {
				g = -g / float64(n) // keep dominance: small negatives only
			}
			upd.Terms = append(upd.Terms, UpdateTerm{I: i, J: j, G: g})
		}

		us, err := NewUpdatedSolver(base, m, upd)
		if err != nil {
			if !errors.Is(err, ErrIllConditioned) {
				t.Fatalf("trial %d: unexpected error class: %v", trial, err)
			}
			continue // the guard declined; the fallback path would handle it
		}

		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := us.Solve(b)

		ref := m.Clone()
		applyUpdate(ref, upd)
		want, err := SolveSystem(ref.Clone(), b)
		if err != nil {
			t.Fatalf("trial %d: reference factor failed where the guard passed: %v", trial, err)
		}
		tol := 1e-8 * (1 + NormInf(want))
		for i := range x {
			if d := math.Abs(x[i] - want[i]); !(d <= tol) {
				t.Fatalf("trial %d (n=%d, k=%d): x[%d] = %g, direct %g (Δ %.3g > %.3g)",
					trial, n, k, i, x[i], want[i], d, tol)
			}
		}
		if res := us.ResidualInf(x, b); !(res <= tol) {
			t.Fatalf("trial %d: perturbed-system residual %.3g > %.3g", trial, res, tol)
		}
		solved++
	}
	if solved < 250 {
		t.Fatalf("only %d/300 trials exercised the update path; the guard is over-firing", solved)
	}
}

// TestUpdatedSolverSingularCapacitanceFallsBack drives the capacitance
// matrix to exact singularity: for a ground-referenced rank-1 term,
// C = 1 + g·(A⁻¹)_II, so g = −1/(A⁻¹)_II makes the updated matrix —
// and C with it — singular. The constructor must refuse with
// ErrIllConditioned (the caller's fallback cue), never return a solver
// that would divide by the vanishing pivot. Nearby values within the
// κ∞ guard band must be refused too.
func TestUpdatedSolverSingularCapacitanceFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	pat, m := randPatterned(rng, 12)
	base := armedSparseLU(t, pat, m)

	// (A⁻¹)_II via one unit solve.
	e := make([]float64, 12)
	w := make([]float64, 12)
	const node = 5
	e[node] = 1
	base.SolveInto(w, e)
	gSing := -1 / w[node]

	for _, scale := range []float64{1, 1 + 1e-14, 1 - 1e-14} {
		upd := LowRankUpdate{Terms: []UpdateTerm{{I: node, J: GroundTerm, G: gSing * scale}}}
		if _, err := NewUpdatedSolver(base, m, upd); !errors.Is(err, ErrIllConditioned) {
			t.Fatalf("scale %v: singular capacitance accepted (err = %v)", scale, err)
		}
	}

	// Far from the singular value the same term must be accepted.
	upd := LowRankUpdate{Terms: []UpdateTerm{{I: node, J: GroundTerm, G: math.Abs(gSing)}}}
	if _, err := NewUpdatedSolver(base, m, upd); err != nil {
		t.Fatalf("well-conditioned term refused: %v", err)
	}
}

// TestUpdatedSolverRejectsBadTerms pins the constructor's validation:
// out-of-range indices, self-loops and non-finite conductances are
// ErrIllConditioned (fallback), not panics or silent acceptance.
func TestUpdatedSolverRejectsBadTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pat, m := randPatterned(rng, 6)
	base := armedSparseLU(t, pat, m)
	bad := []UpdateTerm{
		{I: -1, J: 2, G: 1},
		{I: 6, J: 2, G: 1},
		{I: 2, J: 6, G: 1},
		{I: 2, J: -2, G: 1},
		{I: 3, J: 3, G: 1},
		{I: 0, J: 1, G: math.NaN()},
		{I: 0, J: 1, G: math.Inf(1)},
	}
	for _, term := range bad {
		upd := LowRankUpdate{Terms: []UpdateTerm{term}}
		if _, err := NewUpdatedSolver(base, m, upd); !errors.Is(err, ErrIllConditioned) {
			t.Fatalf("term %+v accepted (err = %v)", term, err)
		}
	}
}

// TestUpdatedSolverEmptyUpdate pins the degenerate case: zero terms
// means (A+0)x = b, so SolveInto must reduce to the base solve exactly.
func TestUpdatedSolverEmptyUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pat, m := randPatterned(rng, 8)
	base := armedSparseLU(t, pat, m)
	us, err := NewUpdatedSolver(base, m, LowRankUpdate{})
	if err != nil {
		t.Fatal(err)
	}
	if us.Rank() != 0 {
		t.Fatalf("Rank = %d", us.Rank())
	}
	b := make([]float64, 8)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := us.Solve(b)
	want := base.Solve(b)
	bitsEqual(t, "empty-update solve", got, want)
}
