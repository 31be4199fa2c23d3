package solver

import (
	"fmt"
	"math"
)

// Pattern is the structural nonzero pattern of an n×n MNA matrix: the
// set of cells any stamp of the circuit can ever touch. The engine
// records it once per (circuit, stamp mode) by replaying the compiled
// stamp program into a probing context; stamp positions depend only on
// element terminals and aux numbering — never on the iterate — so the
// pattern is valid for every Newton iteration and timestep.
//
// A pattern may safely over-approximate (extra marked cells merely cost
// a few arithmetic operations on exact zeros); it must never miss a
// cell a stamp can write, because the sparse factorisation relies on
// unmarked cells holding exact +0.
type Pattern struct {
	N  int
	nz []bool
	// idx lists the flat index of every marked cell, in first-mark
	// order; maintained incrementally so Count and the low-rank
	// residual never have to scan the n² cells to enumerate the pattern.
	idx []int32
}

// NewPattern returns an empty n×n pattern.
func NewPattern(n int) *Pattern {
	return &Pattern{N: n, nz: make([]bool, n*n)}
}

// Mark adds cell (i, j) to the pattern.
func (p *Pattern) Mark(i, j int) {
	f := i*p.N + j
	if !p.nz[f] {
		p.nz[f] = true
		p.idx = append(p.idx, int32(f))
	}
}

// Has reports whether cell (i, j) is in the pattern.
func (p *Pattern) Has(i, j int) bool { return p.nz[i*p.N+j] }

// Count returns the number of marked cells. Mark maintains idx
// incrementally (one entry per first-time mark), so the count is just
// its length — no n² scan.
func (p *Pattern) Count() int { return len(p.idx) }

// FactorPath reports which implementation a SparseLU.Refactor call used.
type FactorPath int

const (
	// FactorSparse: every step's pivot matched the cached sequence and
	// the whole pass ran over the symbolic pattern.
	FactorSparse FactorPath = iota
	// FactorDense: at some step k the pivot matched no known analysis,
	// so the pass continued with the dense elimination from k and the
	// analysis of the recorded pivot sequence was looked up (or built).
	FactorDense
	// FactorSparseRetry: the pivot left the cached sequence at least
	// once, but each time a recently used analysis agreed with the
	// observed pivots, and the pass switched to it and stayed sparse.
	FactorSparseRetry
	// FactorDenseLearn: the workspace held no analysis yet (its first
	// factorisation, or the first after a failed one), so the whole
	// pass ran dense to learn one.
	FactorDenseLearn
)

// Sparse reports whether the factorisation ran over a symbolic
// analysis (FactorSparse or FactorSparseRetry).
func (p FactorPath) Sparse() bool { return p == FactorSparse || p == FactorSparseRetry }

// symbolic is the cached elimination analysis for one (pattern, pivot
// sequence) pair: the structural result of simulating Gaussian
// elimination with the recorded interchanges, including fill-in.
type symbolic struct {
	// piv[k] is the cached pivot row of step k (the row swapped up to
	// position k; piv[k] == k when no interchange happened).
	piv []int32
	// search[k] lists the rows i > k with a structural nonzero in
	// column k before step k's interchange. Together with the diagonal
	// cell (k, k) these are the only rows whose magnitude can exceed
	// zero in the dense pivot search, so scanning them reproduces the
	// dense argmax exactly.
	search [][]int32
	// elim[k] lists the rows i > k with a structural nonzero at (i, k)
	// after the interchange — the rows the update loop eliminates.
	elim [][]int32
	// utail[k] lists the columns j > k structurally nonzero in pivot
	// row k at step k (prior fill included) — the update columns.
	utail [][]int32
	// lrow[i]/urow[i] are the final factored structure per row:
	// columns j < i of L (unit diagonal implied) and j > i of U, both
	// ascending, for the sparse triangular solves.
	lrow [][]int32
	urow [][]int32
	// nnz is the filled nonzero count (diagnostics).
	nnz int
}

// buildSymbolic simulates the elimination on the pattern under the given
// per-step pivot sequence, recording per-step structure and fill-in.
// w is caller-provided scratch of length n*n, overwritten wholesale.
func buildSymbolic(pat []bool, n int, step []int32, w []bool) *symbolic {
	copy(w, pat)
	sym := &symbolic{
		piv:    make([]int32, n),
		search: make([][]int32, n),
		elim:   make([][]int32, n),
		utail:  make([][]int32, n),
		lrow:   make([][]int32, n),
		urow:   make([][]int32, n),
	}
	copy(sym.piv, step)
	for k := 0; k < n; k++ {
		var rows []int32
		for i := k + 1; i < n; i++ {
			if w[i*n+k] {
				rows = append(rows, int32(i))
			}
		}
		sym.search[k] = rows
		if p := int(step[k]); p != k {
			for j := 0; j < n; j++ {
				w[k*n+j], w[p*n+j] = w[p*n+j], w[k*n+j]
			}
		}
		var er, uc []int32
		for i := k + 1; i < n; i++ {
			if w[i*n+k] {
				er = append(er, int32(i))
			}
		}
		for j := k + 1; j < n; j++ {
			if w[k*n+j] {
				uc = append(uc, int32(j))
			}
		}
		sym.elim[k], sym.utail[k] = er, uc
		// Fill-in: eliminating row i against pivot row k writes every
		// update column of the pivot row. (The numeric loop may skip a
		// row whose multiplier is exactly zero; the superset is safe.)
		for _, i := range er {
			ri := w[int(i)*n : int(i)*n+n]
			for _, j := range uc {
				ri[j] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		var lr, ur []int32
		for j := 0; j < i; j++ {
			if w[i*n+j] {
				lr = append(lr, int32(j))
			}
		}
		for j := i + 1; j < n; j++ {
			if w[i*n+j] {
				ur = append(ur, int32(j))
			}
		}
		sym.lrow[i], sym.urow[i] = lr, ur
		sym.nnz += len(lr) + len(ur) + 1
	}
	return sym
}

// SparseLU is a factorisation workspace that exploits the structural
// sparsity of MNA matrices. It factors in place: after Refactor(m) the
// factors live in m.A, where the solves read them, until the caller
// overwrites m (the engine's next assembly). A caller that still needs
// the unfactored matrix factors a clone. The workspace holds only the
// pivot bookkeeping and the symbolic analyses, no n² float buffer.
//
// A symbolic analysis is the structure, fill-in included, that the
// elimination has under one pivot sequence. Refactor is one elimination
// pass that follows the current analysis step by step, skipping every
// structurally-zero multiply-add, and verifies at each step that the
// numeric pivot is the one the analysis assumed. On a mismatch at step
// k the pass carries on from step k; it never restarts:
//   - if a recently used analysis agrees on the pivots of steps [0, k)
//     and chooses the observed pivot at step k, the pass switches to it
//     and stays sparse (the structure left after k steps depends only
//     on their pivots, so the two analyses agree on it);
//   - otherwise it continues with the dense elimination from step k and
//     then looks up, or learns, the analysis of the pivot sequence it
//     recorded.
//
// The first factorisation, with no analysis yet, runs dense throughout.
//
// The bit-identity argument: cells outside the filled pattern hold
// exact +0 throughout the dense elimination (MNA assembly accumulates
// from +0 and IEEE-754 addition/subtraction of non-negative-zero terms
// never produces -0), so the multiply-adds the sparse path skips would
// have contributed exactly ±0 to sums that are themselves never -0.
// In place, fill-in cells start at the +0 that assembly left outside
// the pattern, which is what the dense path finds there. The only cells
// where the result differs from the dense path's are the ±0 multipliers
// the dense path stores at structurally-zero L cells, where the sparse
// steps leave +0. No later elimination step reads an L cell of an
// earlier column, so a dense continuation from step k computes what the
// dense path computes, and the solves never let those zeros reach an
// arithmetic result. The solver's property tests pin this down by
// comparing solve outputs and determinants bit for bit.
type SparseLU struct {
	n int
	// pat is the stamp pattern, shared with the caller's Pattern.
	pat *Pattern
	// f carries the pivot bookkeeping; f.lu aliases the matrix most
	// recently passed to Refactor.
	f   LU
	sym *symbolic
	// cands holds every symbolic analysis learned so far, keyed by a
	// hash of its pivot sequence (hash collisions resolved by exact
	// comparison). Newton solves revisit the same sequences over and
	// over (device operating regions shift the column magnitudes, the
	// convergence aids shift the diagonals — a transient walks through
	// a few hundred distinct sequences and then repeats them), so a
	// dense continuation first looks for an existing analysis of the
	// sequence it just recorded before paying for a new one — steady
	// state then re-analyses nothing, no matter how often the pivots
	// flip.
	cands  map[uint64][]*symbolic
	nCands int
	// mru holds the most recently used analyses, most recent first. A
	// transient's pivot sequences flip within a small working set, so
	// on a mismatch at step k with observed pivot p the right analysis
	// is almost always one of these.
	mru [8]*symbolic
	// lastSparse records whether the most recent pass stayed sparse;
	// only then do the solves run over the symbolic structure. After a
	// dense continuation they run dense, as the dense path's would.
	lastSparse bool
	// symW is the scratch working pattern for buildSymbolic, reused
	// across analyses (the build overwrites it wholesale).
	symW []bool
}

// maxSymbolicCands bounds the per-workspace analysis cache; reaching it
// drops the whole cache and re-learns (an epoch reset — rare, and far
// cheaper than the per-call thrash of evicting from a live working
// set). A transient walks through a few hundred distinct sequences as
// devices switch regions, so the bound sits well above that; an
// analysis is a few kilobytes.
const maxSymbolicCands = 1024

// NewSparseLU returns a workspace for matrices with the given stamp
// pattern. The workspace shares the pattern's cells, so p must not be
// marked again afterwards.
func NewSparseLU(p *Pattern) *SparseLU {
	return &SparseLU{
		n:   p.N,
		pat: p,
		f:   LU{n: p.N, piv: make([]int, p.N), step: make([]int32, p.N)},
	}
}

// N returns the system size.
func (s *SparseLU) N() int { return s.n }

// FillNNZ returns the filled nonzero count of the current symbolic
// analysis (0 before the first factorisation).
func (s *SparseLU) FillNNZ() int {
	if s.sym == nil {
		return 0
	}
	return s.sym.nnz
}

// Refactor factors m in place in one elimination pass, sparse while a
// known analysis predicts the pivots and dense from the first step none
// does. m must have its nonzeros inside the workspace's pattern
// (unmarked cells exactly +0), which holds by construction for
// MNA-assembled matrices. The returned path reports how the pass ran;
// the numeric result is identical either way. Errors match the dense
// LU's.
func (s *SparseLU) Refactor(m *Matrix) (FactorPath, error) {
	if m.N != s.n {
		return FactorDense, fmt.Errorf("solver: refactor size %d into sparse workspace of size %d", m.N, s.n)
	}
	s.f.lu = m.A
	s.f.reset()
	path, k := FactorDenseLearn, 0
	if s.sym != nil {
		var err error
		if path, k, err = s.replay(); err != nil {
			// The sparse steps are arithmetic-identical to the dense
			// path, which would report the same singularity.
			return path, err
		}
		if k == s.n {
			s.lastSparse = true
			s.touch(s.sym)
			return path, nil
		}
		path = FactorDense
	}
	s.lastSparse = false
	if err := s.f.eliminate(k); err != nil {
		// The recorded step sequence is partial; drop any stale
		// analysis so the next call re-learns from scratch.
		s.sym = nil
		return path, err
	}
	s.sym = s.analysisFor(s.f.step)
	s.touch(s.sym)
	return path, nil
}

// replay runs the elimination over the current analysis, switching to a
// recently used analysis when the observed pivot leaves the current
// one's sequence. It returns the step it stopped at: n when every step
// ran sparsely, else the first step whose pivot no known analysis
// predicts — the step the dense continuation starts from.
func (s *SparseLU) replay() (FactorPath, int, error) {
	n := s.n
	f := &s.f
	lu := f.lu
	path := FactorSparse
	for k := 0; k < n; k++ {
		sym := s.sym
		// Pivot search over the structural column only: unmarked cells
		// hold exact +0 and can never strictly exceed max ≥ 0, so the
		// argmax equals the dense scan's.
		p, max := k, math.Abs(lu[k*n+k])
		for _, ii := range sym.search[k] {
			if a := math.Abs(lu[int(ii)*n+k]); a > max {
				p, max = int(ii), a
			}
		}
		if max < tiny {
			return path, k, singularAt(k, max)
		}
		if p != int(sym.piv[k]) {
			if sym = s.altCandidate(sym, k, int32(p)); sym == nil {
				return path, k, nil
			}
			s.sym, path = sym, FactorSparseRetry
		}
		f.interchange(k, p)
		rowk := lu[k*n : k*n+n]
		pivot := rowk[k]
		for _, ii := range sym.elim[k] {
			i := int(ii)
			rowi := lu[i*n : i*n+n]
			l := rowi[k] / pivot
			rowi[k] = l
			if l == 0 {
				continue
			}
			for _, jj := range sym.utail[k] {
				j := int(jj)
				rowi[j] -= l * rowk[j]
			}
		}
	}
	return path, n, nil
}

// touch promotes sym to the front of the MRU list.
func (s *SparseLU) touch(sym *symbolic) {
	if s.mru[0] == sym {
		return
	}
	prev := sym
	for i := range s.mru {
		s.mru[i], prev = prev, s.mru[i]
		if prev == sym {
			break
		}
	}
}

// altCandidate returns a recently used analysis whose pivot sequence
// agrees with cur on the verified prefix [0, k) and chooses pivot p at
// step k — the sequence the numeric factorisation is following, if it
// is a known one.
func (s *SparseLU) altCandidate(cur *symbolic, k int, p int32) *symbolic {
	for _, c := range s.mru {
		if c == nil || c == cur {
			continue
		}
		if c.piv[k] == p && int32sEqual(c.piv[:k], cur.piv[:k]) {
			return c
		}
	}
	return nil
}

// analysisFor returns the cached symbolic analysis of the given pivot
// sequence, building (and remembering) it on first sight.
func (s *SparseLU) analysisFor(step []int32) *symbolic {
	h := hashInt32s(step)
	for _, c := range s.cands[h] {
		if int32sEqual(c.piv, step) {
			return c
		}
	}
	if s.symW == nil {
		s.symW = make([]bool, s.n*s.n)
	}
	sym := buildSymbolic(s.pat.nz, s.n, step, s.symW)
	if s.nCands >= maxSymbolicCands {
		s.cands, s.nCands = nil, 0
	}
	if s.cands == nil {
		s.cands = make(map[uint64][]*symbolic)
	}
	s.cands[h] = append(s.cands[h], sym)
	s.nCands++
	return sym
}

// hashInt32s is FNV-1a over the sequence's little-endian bytes.
func hashInt32s(a []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range a {
		u := uint32(v)
		for sh := 0; sh < 32; sh += 8 {
			h ^= uint64(byte(u >> sh))
			h *= 1099511628211
		}
	}
	return h
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// SolveInto solves A·x = b for the factored A into the caller-provided
// x (len n), allocation-free; b is not modified and x must not alias
// it (panics on the exact-overlap case, like LU.SolveInto). After a
// sparse factorisation the triangular solves run over the symbolic
// structure only, which is bit-identical to the dense solve (the
// skipped coefficients are ±0 and the partial sums they would join
// are never -0).
func (s *SparseLU) SolveInto(x, b []float64) []float64 {
	if !s.lastSparse {
		return s.f.SolveInto(x, b)
	}
	checkNoAlias(x, b)
	n := s.n
	lu := s.f.lu
	piv := s.f.piv
	sym := s.sym
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 1; i < n; i++ {
		var sum float64
		row := lu[i*n : i*n+n]
		for _, j := range sym.lrow[i] {
			sum += row[j] * x[j]
		}
		x[i] -= sum
	}
	for i := n - 1; i >= 0; i-- {
		var sum float64
		row := lu[i*n : i*n+n]
		for _, j := range sym.urow[i] {
			sum += row[j] * x[j]
		}
		x[i] = (x[i] - sum) / row[i]
	}
	return x
}

// Solve returns x with A·x = b for the factored A. b is not modified.
func (s *SparseLU) Solve(b []float64) []float64 {
	return s.SolveInto(make([]float64, s.n), b)
}

// Det returns the determinant of the factored matrix.
func (s *SparseLU) Det() float64 { return s.f.Det() }
