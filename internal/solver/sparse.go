package solver

import (
	"fmt"
	"math"
	"math/bits"
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
	N int
	// rows holds one bit row of w words per matrix row: cell (i, j) is
	// bit j&63 of rows[i*w+j>>6].
	rows []uint64
	w    int
	// idx lists the flat index of every marked cell, in first-mark
	// order; maintained incrementally so Count and the low-rank
	// residual never have to scan the n² cells to enumerate the pattern.
	idx []int32
}

// NewPattern returns an empty n×n pattern.
func NewPattern(n int) *Pattern {
	w := (n + 63) >> 6
	return &Pattern{N: n, rows: make([]uint64, n*w), w: w}
}

// Mark adds cell (i, j) to the pattern.
func (p *Pattern) Mark(i, j int) {
	f, b := i*p.w+j>>6, uint64(1)<<(j&63)
	if p.rows[f]&b == 0 {
		p.rows[f] |= b
		p.idx = append(p.idx, int32(i*p.N+j))
	}
}

// Has reports whether cell (i, j) is in the pattern.
func (p *Pattern) Has(i, j int) bool { return p.rows[i*p.w+j>>6]>>(j&63)&1 != 0 }

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
	// FactorDense: at some step k the pivot left every known analysis,
	// so the pass learned the structure from step k on and the analysis
	// of the pivot sequence it followed was looked up (or built).
	FactorDense
	// FactorSparseRetry: the pivot left the cached sequence at least
	// once, but each time a recently used analysis agreed with the
	// observed pivots, and the pass switched to it and stayed sparse.
	FactorSparseRetry
	// FactorDenseLearn: the workspace held no analysis yet (its first
	// factorisation, or the first after a failed one), so the whole
	// pass learned one.
	FactorDenseLearn
)

// Sparse reports whether the factorisation ran over a symbolic
// analysis (FactorSparse or FactorSparseRetry).
func (p FactorPath) Sparse() bool { return p == FactorSparse || p == FactorSparseRetry }

// symbolic is the cached elimination analysis for one (pattern, pivot
// sequence) pair: the structural result of simulating Gaussian
// elimination with the recorded interchanges, including fill-in. It
// lives in one flat int32 array:
//
//	a[0:n]      piv: piv[k] is the pivot row of step k (the row swapped
//	            up to position k; piv[k] == k when no interchange happened)
//	a[n:6n+1]   off: list l is a[off[l]:off[l+1]]
//	a[6n+1:]    the lists: search, elim and utail of each step k
//	            (lists 3k, 3k+1, 3k+2), then lrow and urow of each row i
//	            (lists 3n+2i, 3n+2i+1)
//
// search(k) lists the rows i > k with a structural nonzero in column k
// before step k's interchange. Together with the diagonal cell (k, k)
// these are the only rows whose magnitude can exceed zero in the dense
// pivot search, so scanning them reproduces the dense argmax exactly.
// elim(k) lists the rows i > k with a structural nonzero at (i, k)
// after the interchange — the rows the update loop eliminates.
// utail(k) lists the columns j > k structurally nonzero in pivot row k
// at step k (prior fill included) — the update columns. lrow(i) and
// urow(i) are the final factored structure of row i: columns j < i of
// L (unit diagonal implied) and j > i of U, both ascending, for the
// sparse triangular solves.
type symbolic struct {
	piv []int32
	off []int32
	a   []int32
	// nnz is the filled nonzero count (diagnostics).
	nnz int
}

func (s *symbolic) list(l int) []int32   { return s.a[s.off[l]:s.off[l+1]] }
func (s *symbolic) search(k int) []int32 { return s.list(3 * k) }
func (s *symbolic) elim(k int) []int32   { return s.list(3*k + 1) }
func (s *symbolic) utail(k int) []int32  { return s.list(3*k + 2) }
func (s *symbolic) lrow(i int) []int32   { return s.list(3*len(s.piv) + 2*i) }
func (s *symbolic) urow(i int) []int32   { return s.list(3*len(s.piv) + 2*i + 1) }

// SparseLU is a factorisation workspace that exploits the structural
// sparsity of MNA matrices. It factors in place: after Refactor(m) the
// factors live in m.A, where the solves read them, until the caller
// overwrites m (the engine's next assembly). A caller that still needs
// the unfactored matrix factors a clone. The workspace holds only the
// pivot bookkeeping, the symbolic analyses and the learn pass's
// scratch, no n² float buffer.
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
//   - otherwise the learn pass takes over from step k: it rebuilds the
//     structure of steps [0, k) from the current analysis, then picks
//     each later pivot over the structural column, eliminates over the
//     structural rows and columns and records the structure, fill-in
//     included, as it goes. The analysis of the pivot sequence it
//     followed is then looked up, or built from that record.
//
// The first factorisation, with no analysis yet, learns from step 0.
// Every path runs the same arithmetic, so the factors are the same.
//
// The bit-identity argument against the dense LU: cells outside the
// filled pattern hold exact +0 throughout the dense elimination (MNA
// assembly accumulates from +0 and IEEE-754 addition/subtraction of
// non-negative-zero terms never produces -0), so the multiply-adds the
// sparse steps skip would have contributed exactly ±0 to sums that are
// themselves never -0. In place, fill-in cells start at the +0 that
// assembly left outside the pattern, which is what the dense path
// finds there. The only cells where the result differs from the dense
// path's are the ±0 multipliers the dense path stores at
// structurally-zero L cells, where the sparse steps leave +0. No later
// elimination step reads an L cell of an earlier column, and the
// solves never let those zeros reach an arithmetic result. The
// solver's property tests pin this down by comparing solve outputs and
// determinants bit for bit.
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
	// learn pass first looks for an existing analysis of the sequence
	// it just followed before building a new one — steady state then
	// builds nothing, no matter how often the pivots flip.
	cands  map[uint64][]*symbolic
	nCands int
	// mru holds the most recently used analyses, most recent first. A
	// transient's pivot sequences flip within a small working set, so
	// on a mismatch at step k with observed pivot p the right analysis
	// is almost always one of these.
	mru [8]*symbolic
	// The learn pass's scratch, reused across passes: work is the
	// working pattern (bit rows laid out as Pattern's), rec holds the
	// search, elim and utail lists of the steps the pass ran back to
	// back, and recOff their bounds (list t is rec[recOff[t]:recOff[t+1]]).
	work   []uint64
	rec    []int32
	recOff []int32
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

// Refactor factors m in place in one elimination pass, replaying known
// analyses while they predict the pivots and learning from the first
// step none does. m must have its nonzeros inside the workspace's
// pattern (unmarked cells exactly +0), which holds by construction for
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
			s.touch(s.sym)
			return path, nil
		}
		path = FactorDense
	}
	if err := s.learn(k); err != nil {
		// The recorded step sequence is partial; drop any stale
		// analysis so the next call re-learns from scratch.
		s.sym = nil
		return path, err
	}
	s.touch(s.sym)
	return path, nil
}

// replay runs the elimination over the current analysis, switching to a
// recently used analysis when the observed pivot leaves the current
// one's sequence. It returns the step it stopped at: n when every step
// ran sparsely, else the first step whose pivot no known analysis
// predicts — the step the learn pass starts from.
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
		for _, ii := range sym.search(k) {
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
		s.eliminateStep(k, sym.elim(k), sym.utail(k))
	}
	return path, n, nil
}

// eliminateStep eliminates column k below the pivot over the given
// structural rows and update columns: the one elimination step of both
// the replay and the learn pass.
func (s *SparseLU) eliminateStep(k int, elim, utail []int32) {
	n := s.n
	lu := s.f.lu
	rowk := lu[k*n : k*n+n]
	pivot := rowk[k]
	for _, ii := range elim {
		i := int(ii)
		rowi := lu[i*n : i*n+n]
		l := rowi[k] / pivot
		rowi[k] = l
		if l == 0 {
			continue
		}
		for _, jj := range utail {
			j := int(jj)
			rowi[j] -= l * rowk[j]
		}
	}
}

// learn finishes the elimination from step k0 over the stamp pattern
// and leaves s.sym at the analysis of the pivot sequence it followed.
// Steps [0, k0) must already be applied under s.sym's pivots (k0 is 0
// when s.sym is nil). Each step picks its pivot over the structural
// column of the working pattern, as replay does over an analysis's
// search list, and eliminates over the structural rows and update
// columns, so the pass runs replay's arithmetic. Its structure is
// recorded into the workspace's scratch; an analysis is materialised
// only when the memo holds none for the sequence.
func (s *SparseLU) learn(k0 int) error {
	n, w := s.n, s.pat.w
	if s.work == nil {
		s.work = make([]uint64, len(s.pat.rows))
	}
	work := s.work
	copy(work, s.pat.rows)
	prev := s.sym
	for k := 0; k < k0; k++ {
		s.swapRows(k, int(prev.piv[k]))
		for _, i := range prev.elim(k) {
			s.fill(int(i), k)
		}
	}
	f := &s.f
	lu := f.lu
	s.rec, s.recOff = s.rec[:0], append(s.recOff[:0], 0)
	for k := k0; k < n; k++ {
		kw, kb := k>>6, uint64(1)<<(k&63)
		p, max := k, math.Abs(lu[k*n+k])
		lo := len(s.rec)
		for i := k + 1; i < n; i++ {
			if work[i*w+kw]&kb != 0 {
				s.rec = append(s.rec, int32(i))
				if a := math.Abs(lu[i*n+k]); a > max {
					p, max = i, a
				}
			}
		}
		hi := len(s.rec)
		s.recOff = append(s.recOff, int32(hi))
		if max < tiny {
			return singularAt(k, max)
		}
		// After the interchange the rows with a structural (i, k) are
		// the search rows, except that row p now holds the old row k:
		// it stays only if that row had the diagonal cell.
		keepP := work[k*w+kw]&kb != 0
		f.interchange(k, p)
		s.swapRows(k, p)
		for t := lo; t < hi; t++ {
			if i := s.rec[t]; int(i) != p || keepP {
				s.rec = append(s.rec, i)
			}
		}
		mid := len(s.rec)
		s.rec = appendCols(s.rec, work[k*w:k*w+w], k+1, n)
		s.recOff = append(s.recOff, int32(mid), int32(len(s.rec)))
		elim, utail := s.rec[hi:mid], s.rec[mid:]
		for _, i := range elim {
			s.fill(int(i), k)
		}
		s.eliminateStep(k, elim, utail)
	}
	h := hashInt32s(f.step)
	if s.sym = s.lookup(h, f.step); s.sym != nil {
		return nil
	}
	s.sym = s.materialise(prev, k0)
	if s.nCands >= maxSymbolicCands {
		s.cands, s.nCands = nil, 0
	}
	if s.cands == nil {
		s.cands = make(map[uint64][]*symbolic)
	}
	s.cands[h] = append(s.cands[h], s.sym)
	s.nCands++
	return nil
}

// swapRows swaps rows a and b of the working pattern.
func (s *SparseLU) swapRows(a, b int) {
	if a == b {
		return
	}
	w := s.pat.w
	ra, rb := s.work[a*w:a*w+w], s.work[b*w:b*w+w]
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// fill records the fill-in of eliminating row i against pivot row k:
// every column j > k structurally nonzero in the pivot row becomes
// structurally nonzero in row i. (The numeric step may skip a row whose
// multiplier is exactly zero; the superset is safe.)
func (s *SparseLU) fill(i, k int) {
	w := s.pat.w
	kw := k >> 6
	ri, rk := s.work[i*w+kw:i*w+w], s.work[k*w+kw:k*w+w]
	ri[0] |= rk[0] & (^uint64(0) << (k & 63) << 1)
	for j := 1; j < len(ri); j++ {
		ri[j] |= rk[j]
	}
}

// lookup returns the memoised analysis of the pivot sequence step with
// hash h, or nil.
func (s *SparseLU) lookup(h uint64, step []int32) *symbolic {
	for _, c := range s.cands[h] {
		if int32sEqual(c.piv, step) {
			return c
		}
	}
	return nil
}

// materialise builds the analysis of the sequence the learn pass just
// followed from step k0: prev's lists for steps [0, k0), the recorded
// lists for the rest and the row structure of the final working
// pattern, in one allocation.
func (s *SparseLU) materialise(prev *symbolic, k0 int) *symbolic {
	n, w := s.n, s.pat.w
	var prefix []int32
	if k0 > 0 {
		prefix = prev.a[prev.off[0]:prev.off[3*k0]]
	}
	offDiag := 0
	for i := 0; i < n; i++ {
		for _, x := range s.work[i*w : i*w+w] {
			offDiag += bits.OnesCount64(x)
		}
		offDiag -= int(s.work[i*w+i>>6] >> (i & 63) & 1)
	}
	head := 6*n + 1
	a := make([]int32, head+len(prefix)+len(s.rec)+offDiag)
	sym := &symbolic{piv: a[:n:n], off: a[n:head:head], a: a, nnz: offDiag + n}
	copy(sym.piv, s.f.step)
	out := a[:head]
	sym.off[0] = int32(head)
	l := 0
	next := func(list []int32) {
		out = append(out, list...)
		l++
		sym.off[l] = int32(len(out))
	}
	for l < 3*k0 {
		next(prev.list(l))
	}
	for t := 0; l < 3*n; t++ {
		next(s.rec[s.recOff[t]:s.recOff[t+1]])
	}
	for i := 0; i < n; i++ {
		row := s.work[i*w : i*w+w]
		out = appendCols(out, row, 0, i)
		l++
		sym.off[l] = int32(len(out))
		out = appendCols(out, row, i+1, n)
		l++
		sym.off[l] = int32(len(out))
	}
	return sym
}

// appendCols appends the columns j in [lo, hi) set in the bit row to
// dst, ascending.
func appendCols(dst []int32, row []uint64, lo, hi int) []int32 {
	if lo >= hi {
		return dst
	}
	first, last := lo>>6, (hi-1)>>6
	for wd := first; wd <= last; wd++ {
		x := row[wd]
		if wd == first {
			x &= ^uint64(0) << (lo & 63)
		}
		if wd == last {
			x &= ^uint64(0) >> (63 - (hi-1)&63)
		}
		for ; x != 0; x &= x - 1 {
			dst = append(dst, int32(wd<<6|bits.TrailingZeros64(x)))
		}
	}
	return dst
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
// it (panics on the exact-overlap case, like LU.SolveInto). The
// triangular solves run over the symbolic structure of the last
// factorisation only, which is bit-identical to the dense solve (the
// skipped coefficients are ±0 and the partial sums they would join
// are never -0).
func (s *SparseLU) SolveInto(x, b []float64) []float64 {
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
		for _, j := range sym.lrow(i) {
			sum += row[j] * x[j]
		}
		x[i] -= sum
	}
	for i := n - 1; i >= 0; i-- {
		var sum float64
		row := lu[i*n : i*n+n]
		for _, j := range sym.urow(i) {
			sum += row[j] * x[j]
		}
		x[i] = (x[i] - sum) / row[i]
	}
	return x
}

// ClearFactors sets to +0 every cell of m that the last successful
// Refactor(m) can have left nonzero: the diagonal and the filled L and U
// cells of its analysis. Every other cell already held +0 before that
// factorisation (the pattern contract) and the elimination writes only
// filled cells, so m is all +0 afterwards, as after m.Zero().
func (s *SparseLU) ClearFactors(m *Matrix) {
	n := s.n
	for i := 0; i < n; i++ {
		row := m.A[i*n : i*n+n]
		row[i] = 0
		for _, j := range s.sym.lrow(i) {
			row[j] = 0
		}
		for _, j := range s.sym.urow(i) {
			row[j] = 0
		}
	}
}

// Solve returns x with A·x = b for the factored A. b is not modified.
func (s *SparseLU) Solve(b []float64) []float64 {
	return s.SolveInto(make([]float64, s.n), b)
}

// Det returns the determinant of the factored matrix.
func (s *SparseLU) Det() float64 { return s.f.Det() }
