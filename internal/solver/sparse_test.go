package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// mnaSystem is a randomized MNA-shaped test system: a pattern recorded
// from synthetic "stamps" (conductances between node pairs, ideal
// sources on aux rows) and an assembler that accumulates the numeric
// values the same way the engine does — starting from +0, additions
// only — so matrices are representative of what the sparse path sees.
type mnaSystem struct {
	n     int
	pat   *Pattern
	conds [][2]int // node-pair conductance stamps (-1 = ground)
	gvals []float64
	srcs  [][2]int // (node, auxRow) ideal-source stamps
}

func randMNA(rng *rand.Rand) *mnaSystem {
	nodes := 3 + rng.Intn(12)
	aux := rng.Intn(3)
	s := &mnaSystem{n: nodes + aux, pat: NewPattern(nodes + aux)}
	for c := 0; c < 2*nodes; c++ {
		i := rng.Intn(nodes + 1)
		j := rng.Intn(nodes + 1)
		for j == i {
			j = rng.Intn(nodes + 1)
		}
		// Index nodes 1..nodes as MNA vars 0..nodes-1; 0 is ground.
		s.conds = append(s.conds, [2]int{i - 1, j - 1})
		s.gvals = append(s.gvals, math.Exp(rng.NormFloat64()*2))
	}
	for a := 0; a < aux; a++ {
		s.srcs = append(s.srcs, [2]int{rng.Intn(nodes), nodes + a})
	}
	for _, c := range s.conds {
		i, j := c[0], c[1]
		if i >= 0 {
			s.pat.Mark(i, i)
		}
		if j >= 0 {
			s.pat.Mark(j, j)
		}
		if i >= 0 && j >= 0 {
			s.pat.Mark(i, j)
			s.pat.Mark(j, i)
		}
	}
	for _, sv := range s.srcs {
		i, a := sv[0], sv[1]
		s.pat.Mark(i, a)
		s.pat.Mark(a, i)
	}
	// Leak diagonal on the node vars, as assemble applies.
	for i := 0; i < nodes; i++ {
		s.pat.Mark(i, i)
	}
	return s
}

// assemble builds the numeric matrix with every conductance scaled; the
// accumulation order is fixed so two calls with the same scale produce
// identical bits.
func (s *mnaSystem) assemble(m *Matrix, scale float64) {
	m.Zero()
	for ci, c := range s.conds {
		g := s.gvals[ci] * scale
		i, j := c[0], c[1]
		if i >= 0 {
			m.Add(i, i, g)
		}
		if j >= 0 {
			m.Add(j, j, g)
		}
		if i >= 0 && j >= 0 {
			m.Add(i, j, -g)
			m.Add(j, i, -g)
		}
	}
	for _, sv := range s.srcs {
		i, a := sv[0], sv[1]
		m.Add(i, a, 1)
		m.Add(a, i, 1)
	}
	nodes := s.n - len(s.srcs)
	for i := 0; i < nodes; i++ {
		m.Add(i, i, 1e-12)
	}
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %x (%g), want %x (%g)",
				what, i, math.Float64bits(got[i]), got[i],
				math.Float64bits(want[i]), want[i])
		}
	}
}

// TestSparseMatchesDenseBitForBit is the property test of the tentpole
// contract: over randomized MNA-shaped sparse systems, the sparse path
// (learn, then symbolic refactors across perturbed values) solves and
// computes determinants bit-identically to a fresh dense factorisation.
func TestSparseMatchesDenseBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	var sparseRuns int
	for trial := 0; trial < 60; trial++ {
		s := randMNA(rng)
		n := s.n
		slu := NewSparseLU(s.pat)
		dm := NewMatrix(n)
		ref := NewLU(n)
		b := make([]float64, n)
		xs := make([]float64, n)
		xd := make([]float64, n)
		for rep := 0; rep < 7; rep++ {
			// Gentle value drift: pivots usually stay on the cached
			// sequence so the symbolic path is exercised.
			s.assemble(dm, 1+float64(rep)*1e-3)
			path, err := slu.Refactor(dm.Clone())
			errD := ref.Refactor(dm)
			if (err == nil) != (errD == nil) {
				t.Fatalf("trial %d rep %d: sparse err %v vs dense err %v", trial, rep, err, errD)
			}
			if err != nil {
				if err.Error() != errD.Error() {
					t.Fatalf("singular error text diverged: %q vs %q", err, errD)
				}
				continue
			}
			if rep == 0 && path != FactorDenseLearn {
				t.Fatalf("first factorisation must learn through the dense path")
			}
			if path == FactorSparse {
				sparseRuns++
			}
			if db, sb := math.Float64bits(ref.Det()), math.Float64bits(slu.Det()); db != sb {
				t.Fatalf("trial %d rep %d: det bits %x vs %x", trial, rep, sb, db)
			}
			for bt := 0; bt < 3; bt++ {
				for i := range b {
					b[i] = 0
					b[i] += rng.NormFloat64()
				}
				bitsEqual(t, "x", slu.SolveInto(xs, b), ref.SolveInto(xd, b))
			}
		}
	}
	if sparseRuns == 0 {
		t.Fatal("property test never exercised the symbolic path")
	}
}

// TestSparsePivotMismatchFallsBack forces a pivot-sequence change and
// proves the dense fallback engages with bit-identical results, that
// the re-learned sequence restores the symbolic path, and that a return
// to the first sequence is recovered by the MRU retry.
func TestSparsePivotMismatchFallsBack(t *testing.T) {
	pat := NewPattern(2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			pat.Mark(i, j)
		}
	}
	slu := NewSparseLU(pat)
	ref := NewLU(2)
	set := func(m *Matrix, a, b, c, d float64) {
		m.Zero()
		m.Add(0, 0, a)
		m.Add(0, 1, b)
		m.Add(1, 0, c)
		m.Add(1, 1, d)
	}
	m := NewMatrix(2)
	check := func(wantPath FactorPath, step string) {
		t.Helper()
		path, err := slu.Refactor(m.Clone())
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if path != wantPath {
			t.Fatalf("%s: path = %v, want %v", step, path, wantPath)
		}
		if err := ref.Refactor(m); err != nil {
			t.Fatal(err)
		}
		b := []float64{1, -2}
		xs := make([]float64, 2)
		xd := make([]float64, 2)
		bitsEqual(t, step, slu.SolveInto(xs, b), ref.SolveInto(xd, b))
		if math.Float64bits(slu.Det()) != math.Float64bits(ref.Det()) {
			t.Fatalf("%s: det diverged", step)
		}
	}

	set(m, 1, 2, 3, 4) // |3| > |1|: pivot row 1 at step 0
	check(FactorDenseLearn, "learn")
	set(m, 1.001, 2, 3, 4)
	check(FactorSparse, "replay")
	set(m, 5, 2, 3, 4) // |5| > |3|: pivot row 0 — cache mismatch
	check(FactorDense, "fallback")
	set(m, 5.001, 2, 3, 4)
	check(FactorSparse, "relearned replay")
	set(m, 1.002, 2, 3, 4) // back to pivot row 1: the first sequence, still in the MRU
	check(FactorSparseRetry, "MRU retry")
}

// TestSparseSingularMatchesDense pins the error contract: a singular
// system reports the same error through either path.
func TestSparseSingularMatchesDense(t *testing.T) {
	pat := NewPattern(2)
	pat.Mark(0, 0)
	pat.Mark(0, 1)
	pat.Mark(1, 0)
	pat.Mark(1, 1)
	slu := NewSparseLU(pat)
	m := NewMatrix(2)
	m.Add(0, 0, 1)
	m.Add(0, 1, 2)
	m.Add(1, 0, 2)
	m.Add(1, 1, 4)
	if _, err := slu.Refactor(m.Clone()); !errors.Is(err, ErrSingular) {
		t.Fatalf("learning path: err = %v, want ErrSingular", err)
	}
	// Learn on a non-singular system, then hit the singular one through
	// the symbolic path: same error text as the dense factorisation.
	m2 := NewMatrix(2)
	m2.Add(0, 0, 1)
	m2.Add(0, 1, 2)
	m2.Add(1, 0, 2)
	m2.Add(1, 1, 5)
	if _, err := slu.Refactor(m2.Clone()); err != nil {
		t.Fatal(err)
	}
	_, errS := slu.Refactor(m.Clone())
	errD := NewLU(2).Refactor(m)
	if errS == nil || errD == nil || errS.Error() != errD.Error() {
		t.Fatalf("singular errors diverged: %v vs %v", errS, errD)
	}
}

// TestSparseLadderBand exercises a tridiagonal (resistor-ladder-like)
// system where fill-in stays narrow, and checks the symbolic path runs
// and keeps bit-identity at a realistic size.
func TestSparseLadderBand(t *testing.T) {
	n := 257
	pat := NewPattern(n)
	m := NewMatrix(n)
	assemble := func(scale float64) {
		m.Zero()
		for i := 0; i < n; i++ {
			if i > 0 {
				g := scale * (1 + float64(i%7)*0.1)
				m.Add(i, i, g)
				m.Add(i-1, i-1, g)
				m.Add(i, i-1, -g)
				m.Add(i-1, i, -g)
			}
			m.Add(i, i, 1e-12)
		}
	}
	for i := 0; i < n; i++ {
		pat.Mark(i, i)
		if i > 0 {
			pat.Mark(i, i-1)
			pat.Mark(i-1, i)
		}
	}
	slu := NewSparseLU(pat)
	ref := NewLU(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	xs := make([]float64, n)
	xd := make([]float64, n)
	for rep := 0; rep < 3; rep++ {
		assemble(1 + float64(rep)*1e-6)
		path, err := slu.Refactor(m.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if rep > 0 && path != FactorSparse {
			t.Fatalf("rep %d: banded system fell off the symbolic path", rep)
		}
		if err := ref.Refactor(m); err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "x", slu.SolveInto(xs, b), ref.SolveInto(xd, b))
	}
	// Diagonal dominance keeps elimination pivot-free here, so the fill
	// stays tridiagonal: well under 1% of the dense cell count.
	if nnz := slu.FillNNZ(); nnz == 0 || nnz > 4*n {
		t.Fatalf("fill nnz = %d, want (0, %d]", nnz, 4*n)
	}
}

// TestCLUMatchesCSolve pins the AC workspace contract: Refactor +
// SolveInto reproduces the combined CSolve bit for bit, across reuse.
func TestCLUMatchesCSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(20)
		m := NewCMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 || i == j {
					m.Add(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
				}
			}
		}
		clu := NewCLU(n)
		if err := clu.Refactor(m); err != nil {
			continue // singular draw; CSolve would fail identically
		}
		x := make([]complex128, n)
		for bt := 0; bt < 3; bt++ {
			b := make([]complex128, n)
			for i := range b {
				b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			mc := NewCMatrix(n)
			copy(mc.A, m.A)
			want, err := CSolve(mc, append([]complex128(nil), b...))
			if err != nil {
				t.Fatal(err)
			}
			clu.SolveInto(x, b)
			for i := range want {
				if math.Float64bits(real(x[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(x[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("trial %d x[%d] = %v, want %v", trial, i, x[i], want[i])
				}
			}
		}
	}
}

func TestCLUSingular(t *testing.T) {
	m := NewCMatrix(2)
	m.Add(0, 0, 1)
	m.Add(0, 1, 1)
	m.Add(1, 0, 2)
	m.Add(1, 1, 2)
	if err := NewCLU(2).Refactor(m); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// TestPatternCountInterleavedDuplicates pins the incremental-index
// contract behind Count: idx records each cell exactly once in
// first-mark order, no matter how marks and duplicates interleave, so
// Count (= len(idx)) matches the number of distinct marked cells — the
// value the n²-scan definition would produce.
func TestPatternCountInterleavedDuplicates(t *testing.T) {
	p := NewPattern(5)
	marks := [][2]int{
		{0, 0}, {1, 3}, {0, 0}, {2, 2}, {1, 3}, {3, 1},
		{2, 2}, {4, 4}, {0, 0}, {3, 1}, {0, 4}, {1, 3},
	}
	distinct := map[[2]int]bool{}
	for step, mk := range marks {
		p.Mark(mk[0], mk[1])
		distinct[mk] = true
		scan := 0
		for i := 0; i < p.N; i++ {
			for j := 0; j < p.N; j++ {
				if p.Has(i, j) {
					scan++
				}
			}
		}
		if p.Count() != scan || p.Count() != len(distinct) {
			t.Fatalf("step %d: Count = %d, scan = %d, distinct = %d",
				step, p.Count(), scan, len(distinct))
		}
	}
}

// seqModel predicts the FactorPath of a SparseLU.Refactor from the dense
// pivot sequences alone: the workspace learns on its first call, stays
// sparse when the sequence repeats the previous one, recovers sparsely
// (switching analyses mid-pass) when the sequence is one of the eight
// most recently used, and otherwise continues densely.
type seqModel struct {
	mru [][]int32 // most recent first
}

func (m *seqModel) expect(seq []int32) (FactorPath, int) {
	if len(m.mru) == 0 {
		return FactorDenseLearn, 0
	}
	k := 0
	for k < len(seq) && seq[k] == m.mru[0][k] {
		k++
	}
	if k == len(seq) {
		return FactorSparse, k
	}
	for _, c := range m.mru[1:] {
		if int32sEqual(c, seq) {
			return FactorSparseRetry, k
		}
	}
	return FactorDense, k
}

func (m *seqModel) use(seq []int32) {
	seq = append([]int32(nil), seq...)
	out := [][]int32{seq}
	for _, c := range m.mru {
		if !int32sEqual(c, seq) && len(out) < len(SparseLU{}.mru) {
			out = append(out, c)
		}
	}
	m.mru = out
}

// TestSparseContinuationMatchesDense forces pivot mismatches at varied
// steps: each random MNA system is reassembled from a handful of
// strongly perturbed conductance sets, visited in random order, so the
// dense pivot sequence leaves the cached one at many different steps k.
// Each Refactor factors a fresh copy in place; its solves and
// determinant must match LU.Refactor bit for bit, and its path must be
// the one the pivot sequences predict.
func TestSparseContinuationMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	paths := map[FactorPath]int{}
	ks := map[FactorPath]map[int]bool{FactorDense: {}, FactorSparseRetry: {}}
	for trial := 0; trial < 80; trial++ {
		s := randMNA(rng)
		n := s.n
		variants := make([]*mnaSystem, 2+rng.Intn(10))
		for v := range variants {
			c := *s
			c.gvals = make([]float64, len(s.gvals))
			for i, g := range s.gvals {
				c.gvals[i] = g * math.Exp(rng.NormFloat64()*1.5)
			}
			variants[v] = &c
		}
		slu := NewSparseLU(s.pat)
		ref := NewLU(n)
		var model seqModel
		dm := NewMatrix(n)
		b := make([]float64, n)
		xs := make([]float64, n)
		xd := make([]float64, n)
	reps:
		for rep := 0; rep < 30; rep++ {
			variants[rng.Intn(len(variants))].assemble(dm, 1+float64(rep)*1e-3)
			errD := ref.Refactor(dm)
			path, err := slu.Refactor(dm.Clone())
			switch {
			case (err == nil) != (errD == nil):
				t.Fatalf("trial %d rep %d: sparse err %v vs dense err %v", trial, rep, err, errD)
			case err != nil:
				if err.Error() != errD.Error() {
					t.Fatalf("singular error text diverged: %q vs %q", err, errD)
				}
				break reps // a structurally singular draw stays singular
			}
			want, k := model.expect(ref.step)
			if path != want {
				t.Fatalf("trial %d rep %d: path %v, want %v (first mismatch at step %d of %d)", trial, rep, path, want, k, n)
			}
			model.use(ref.step)
			paths[path]++
			if ks[path] != nil {
				ks[path][k] = true
			}
			if db, sb := math.Float64bits(ref.Det()), math.Float64bits(slu.Det()); db != sb {
				t.Fatalf("trial %d rep %d (%v): det bits %x vs %x", trial, rep, path, sb, db)
			}
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			bitsEqual(t, "x", slu.SolveInto(xs, b), ref.SolveInto(xd, b))
		}
	}
	for _, p := range []FactorPath{FactorDenseLearn, FactorSparse, FactorSparseRetry, FactorDense} {
		if paths[p] == 0 {
			t.Errorf("path %v never exercised (%v)", p, paths)
		}
	}
	for p, at := range ks {
		if len(at) < 4 {
			t.Errorf("path %v: mismatches only at steps %v, want at least 4 distinct", p, at)
		}
	}
	t.Logf("paths %v; dense from steps %v; retries from steps %v", paths, ks[FactorDense], ks[FactorSparseRetry])
}
