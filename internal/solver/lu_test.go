package solver

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveIdentity(t *testing.T) {
	m := NewMatrix(3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 1)
	}
	b := []float64{1, 2, 3}
	x, err := SolveSystem(m, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-14 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
	m := NewMatrix(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x, err := SolveSystem(m, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestPivotingRequired(t *testing.T) {
	// Zero on the initial (0,0) position forces a row swap.
	m := NewMatrix(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := SolveSystem(m, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-14 || math.Abs(x[1]-2) > 1e-14 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestSingularDetected(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := Factor(m); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestDeterminant(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 1)
	m.Set(1, 0, 4)
	m.Set(1, 1, 2)
	f, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-2) > 1e-12 {
		t.Fatalf("det = %g, want 2", d)
	}
	// Swapped rows: determinant flips sign.
	s := NewMatrix(2)
	s.Set(0, 0, 4)
	s.Set(0, 1, 2)
	s.Set(1, 0, 3)
	s.Set(1, 1, 1)
	fs, err := Factor(s)
	if err != nil {
		t.Fatal(err)
	}
	if d := fs.Det(); math.Abs(d+2) > 1e-12 {
		t.Fatalf("det = %g, want -2", d)
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := NewMatrix(2)
	m.Add(0, 1, 2)
	m.Add(0, 1, 3)
	if m.At(0, 1) != 5 {
		t.Fatal("Add must accumulate")
	}
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 5 {
		t.Fatal("Clone must be deep")
	}
	m.Zero()
	if m.At(0, 1) != 0 {
		t.Fatal("Zero must clear")
	}
	if s := m.String(); s == "" {
		t.Fatal("String empty")
	}
	if NormInf([]float64{1, -7, 3}) != 7 {
		t.Fatal("NormInf")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

// Property: for random diagonally-dominant systems, solving and then
// multiplying back recovers b.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.Float64()*2 - 1
					m.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			m.Set(i, i, rowSum+1+rng.Float64()) // strictly dominant
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x, err := SolveSystem(m, b)
		if err != nil {
			return false
		}
		back := m.MulVec(x)
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reusing one factorisation for multiple right-hand sides gives
// the same answers as factoring per solve.
func TestQuickFactorReuse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.Float64())
			}
			m.Add(i, i, float64(n))
		}
		lu, err := Factor(m)
		if err != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.Float64()
			}
			x1 := lu.Solve(b)
			x2, err := SolveSystem(m, b)
			if err != nil {
				return false
			}
			for i := range x1 {
				if math.Abs(x1[i]-x2[i]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveDoesNotMutateB(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 2)
	b := []float64{4, 6}
	lu, _ := Factor(m)
	_ = lu.Solve(b)
	if b[0] != 4 || b[1] != 6 {
		t.Fatal("Solve mutated its input")
	}
}

func TestCSolveKnown(t *testing.T) {
	// (1+i)x = 2 → x = 1-i
	m := NewCMatrix(1)
	m.Add(0, 0, complex(1, 1))
	x, err := CSolve(m, []complex128{2})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-complex(1, -1)) > 1e-12 {
		t.Fatalf("x = %v", x[0])
	}
}

func TestCSolvePivoting(t *testing.T) {
	m := NewCMatrix(2)
	m.Add(0, 1, 1)
	m.Add(1, 0, 1)
	x, err := CSolve(m, []complex128{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-5) > 1e-12 || cmplx.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestCSolveSingular(t *testing.T) {
	m := NewCMatrix(2)
	m.Add(0, 0, 1)
	m.Add(0, 1, 1)
	m.Add(1, 0, 2)
	m.Add(1, 1, 2)
	if _, err := CSolve(m, []complex128{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v", err)
	}
}

func TestCSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	orig := NewCMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			orig.Add(i, j, complex(rng.Float64(), rng.Float64()))
		}
		orig.Add(i, i, complex(float64(n), 0))
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.Float64(), rng.Float64())
	}
	// Keep copies (CSolve clobbers).
	mc := NewCMatrix(n)
	copy(mc.A, orig.A)
	bc := append([]complex128(nil), b...)
	x, err := CSolve(mc, bc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += orig.At(i, j) * x[j]
		}
		if cmplx.Abs(s-b[i]) > 1e-9 {
			t.Fatalf("row %d residual %g", i, cmplx.Abs(s-b[i]))
		}
	}
}

func TestCMatrixZero(t *testing.T) {
	m := NewCMatrix(2)
	m.Add(1, 1, 3)
	m.Zero()
	if m.At(1, 1) != 0 {
		t.Fatal("Zero failed")
	}
}

// mustPanic asserts fn panics; the SolveInto alias guards are
// programming-error checks, so they must fail loudly, not corrupt the
// back-substitution silently.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	fn()
}

// TestSolveIntoAliasPanics pins the x-must-not-alias-b contract of every
// SolveInto in the package: back-substitution reads b while writing x,
// so exact overlap silently corrupts the solution. The guard panics on
// the detectable case (same first element) and distinct storage stays
// allowed.
func TestSolveIntoAliasPanics(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	lu, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{1, 2}
	mustPanic(t, "dense LU", func() { lu.SolveInto(v, v) })

	pat := NewPattern(2)
	pat.Mark(0, 0)
	pat.Mark(0, 1)
	pat.Mark(1, 0)
	pat.Mark(1, 1)
	slu := NewSparseLU(pat)
	for i := 0; i < 2; i++ {
		if _, err := slu.Refactor(m.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	mustPanic(t, "sparse LU (armed)", func() { slu.SolveInto(v, v) })

	us, err := NewUpdatedSolver(slu, m, LowRankUpdate{Terms: []UpdateTerm{{I: 0, J: 1, G: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "updated solver", func() { us.SolveInto(v, v) })

	// Distinct slices of equal content must still be fine.
	x := make([]float64, 2)
	lu.SolveInto(x, v)
	slu.SolveInto(x, v)
	us.SolveInto(x, v)
}
