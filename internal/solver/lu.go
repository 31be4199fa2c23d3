// Package solver provides the linear-algebra kernel of the analog
// simulator: LU factorisation with partial pivoting and triangular
// solves. LU is the dense reference; SparseLU factors MNA matrices in
// place over a cached symbolic analysis and is bit-identical to it.
package solver

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorisation encounters a pivot that is
// numerically zero.
var ErrSingular = errors.New("solver: matrix is singular")

// Matrix is a dense row-major square matrix.
type Matrix struct {
	N int
	A []float64
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, A: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.A[i*m.N+j] = v }

// Add accumulates into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.A[i*m.N+j] += v }

// Zero clears all entries (retaining the allocation).
func (m *Matrix) Zero() {
	for i := range m.A {
		m.A[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.A, m.A)
	return c
}

// MulVec computes y = m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	return m.MulVecInto(make([]float64, m.N), x)
}

// MulVecInto computes y = m·x into the caller-provided y (len m.N),
// allocation-free. y must not alias x.
func (m *Matrix) MulVecInto(y, x []float64) []float64 {
	for i := 0; i < m.N; i++ {
		var s float64
		row := m.A[i*m.N : (i+1)*m.N]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// String formats the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			s += fmt.Sprintf("%12.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// LU holds an in-place LU factorisation with a pivot permutation.
type LU struct {
	n    int
	lu   []float64
	piv  []int
	sign int
	// step records, per elimination step k, which row p ≥ k was chosen
	// as the pivot (p == k when no interchange happened). It is the
	// sequence the sparse path caches and later verifies against; the
	// permutation in piv is its composed form.
	step []int32
}

// NewLU returns a reusable factorisation workspace for n×n systems. A
// single workspace amortises the pivot/permutation and triangular-factor
// buffers across every Refactor/SolveInto of a Newton iteration loop.
func NewLU(n int) *LU {
	return &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1, step: make([]int32, n)}
}

// Factor computes the LU factorisation of m with partial pivoting. m is not
// modified. Returns ErrSingular if a pivot magnitude falls below tiny.
func Factor(m *Matrix) (*LU, error) {
	f := NewLU(m.N)
	if err := f.Refactor(m); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor recomputes the factorisation of m in the workspace's cached
// buffers, allocation-free. m must be n×n for the workspace's n; m is not
// modified. The arithmetic is identical to Factor, so refactoring through
// a reused workspace is bit-for-bit equivalent to a fresh factorisation.
func (f *LU) Refactor(m *Matrix) error {
	if m.N != f.n {
		return fmt.Errorf("solver: refactor size %d into workspace of size %d", m.N, f.n)
	}
	copy(f.lu, m.A)
	f.reset()
	return f.eliminate(0)
}

// reset makes the permutation the identity before a factorisation.
func (f *LU) reset() {
	f.sign = 1
	for i := range f.piv {
		f.piv[i] = i
	}
}

// tiny is the pivot magnitude below which a matrix counts as singular.
const tiny = 1e-300

// singularAt is the error of a pivot search whose best magnitude max at
// step k fell below tiny; every factorisation path reports it alike.
func singularAt(k int, max float64) error {
	return fmt.Errorf("%w: pivot %d (|p|=%g)", ErrSingular, k, max)
}

// interchange records p as the pivot row of step k and swaps it into
// position k.
func (f *LU) interchange(k, p int) {
	f.step[k] = int32(p)
	if p == k {
		return
	}
	n := f.n
	rk, rp := f.lu[k*n:k*n+n], f.lu[p*n:p*n+n]
	for j := range rk {
		rk[j], rp[j] = rp[j], rk[j]
	}
	f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
	f.sign = -f.sign
}

// eliminate runs the dense partial-pivoting elimination on f.lu from
// step k0 to the end. Steps before k0 must already be applied to f.lu,
// with their interchanges recorded in piv, sign and step.
func (f *LU) eliminate(k0 int) error {
	n := f.n
	for k := k0; k < n; k++ {
		// Pivot search in column k.
		p, max := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > max {
				p, max = i, a
			}
		}
		if max < tiny {
			return singularAt(k, max)
		}
		f.interchange(k, p)
		// Row slices let the compiler drop bounds checks in the update
		// loop; the arithmetic and its order are unchanged.
		rowk := f.lu[k*n : k*n+n]
		pivot := rowk[k]
		tail := rowk[k+1:]
		for i := k + 1; i < n; i++ {
			rowi := f.lu[i*n : i*n+n]
			l := rowi[k] / pivot
			rowi[k] = l
			if l == 0 {
				continue
			}
			ri := rowi[k+1:]
			for j, v := range tail {
				ri[j] -= l * v
			}
		}
	}
	return nil
}

// Solve returns x with A·x = b for the factored A. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	return f.SolveInto(make([]float64, f.n), b)
}

// SolveInto solves A·x = b for the factored A into the caller-provided x
// (len n), allocation-free. b is not modified; x must not alias b —
// the permutation pass reads b[piv[i]] after writing x[i], so an
// aliased call would fold already-permuted values back into the
// source. The overlap is a programming error, so it panics (same
// contract as an out-of-range index) rather than returning an error.
func (f *LU) SolveInto(x, b []float64) []float64 {
	checkNoAlias(x, b)
	n := f.n
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu[i*n : i*n+i]
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		var s float64
		row := f.lu[i*n+i : i*n+n]
		for j, v := range row[1:] {
			s += v * x[i+1+j]
		}
		x[i] = (x[i] - s) / row[0]
	}
	return x
}

// checkNoAlias panics when x and b share a backing array at index 0 —
// the cheap exact test for the "x must not alias b" contract of the
// SolveInto methods. Partial overlaps of distinct slices are not
// detected (the check is one pointer comparison on the hot path), but
// the reuse bug this guards against is passing the same workspace for
// both arguments, which it catches exactly.
func checkNoAlias(x, b []float64) {
	if len(x) > 0 && len(b) > 0 && &x[0] == &b[0] {
		panic("solver: SolveInto x aliases b")
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// SolveSystem factors m and solves m·x = b in one call.
func SolveSystem(m *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(m)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// NormInf returns the infinity norm of the vector v.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
