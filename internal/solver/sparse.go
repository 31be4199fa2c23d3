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
	// order; maintained incrementally so NewSparseLU never has to scan
	// the n² cells to enumerate the pattern.
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
	// FactorSparse: the cached pivot sequence was verified cell by cell
	// and the factorisation ran over the symbolic pattern only.
	FactorSparse FactorPath = iota
	// FactorDense: the cached pivot sequence mismatched and no recently
	// used analysis matched either, so the dense LU ran and the
	// symbolic analysis was looked up (or built) from the pivot
	// sequence it recorded.
	FactorDense
	// FactorSparseRetry: the cached pivot sequence mismatched, but a
	// recently used analysis agreed with the observed pivots and the
	// sparse path ran over it.
	FactorSparseRetry
	// FactorDenseLearn: the workspace held no analysis yet (its first
	// factorisation, or the first after a failed one), so the dense LU
	// ran to learn one.
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
	// zero lists flat original-frame cell indices the numeric replay
	// must initialise to exact +0 before eliminating: fill-in targets
	// (read-modified before ever being written from the input) and
	// unmarked working diagonals (read by the pivot search, where the
	// dense scan sees +0). Everything else the replay touches is a
	// pattern cell, initialised from the input matrix. Recording uses
	// original-frame positions — the row interchanges then carry the
	// zeros to their working positions exactly as they carry the
	// pattern values.
	zero []int32
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
	// perm[i] is the original row currently at working position i; it
	// maps zero-initialisation targets back to the input frame.
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for k := 0; k < n; k++ {
		var rows []int32
		for i := k + 1; i < n; i++ {
			if w[i*n+k] {
				rows = append(rows, int32(i))
			}
		}
		sym.search[k] = rows
		// The pivot search also reads the working diagonal; when it is
		// structurally zero the dense scan sees exact +0 there.
		if !w[k*n+k] {
			sym.zero = append(sym.zero, perm[k]*int32(n)+int32(k))
		}
		if p := int(step[k]); p != k {
			for j := 0; j < n; j++ {
				w[k*n+j], w[p*n+j] = w[p*n+j], w[k*n+j]
			}
			perm[k], perm[p] = perm[p], perm[k]
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
		// A first-time fill cell is read-modified by the update before
		// anything wrote it, so it must start as the +0 the dense path
		// would hold there.
		for _, i := range er {
			ri := w[int(i)*n : int(i)*n+n]
			oi := perm[int(i)] * int32(n)
			for _, j := range uc {
				if !ri[j] {
					ri[j] = true
					sym.zero = append(sym.zero, oi+int32(j))
				}
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
// sparsity of MNA matrices. The first Refactor runs the dense LU and
// records its pivot sequence; a symbolic pass then simulates the
// elimination on the stamp pattern under that sequence, computing
// fill-in and the per-step structure. Subsequent Refactors run only
// over the symbolic structure, skipping every structurally-zero
// multiply-add — bit-identical to the dense path provided the numeric
// pivot choice still matches the cached sequence, which each step
// verifies before committing; on a mismatch (or on the first call) the
// call falls back to the dense LU and re-learns the sequence, so the
// result is the dense result either way.
//
// The bit-identity argument: cells outside the filled pattern hold
// exact +0 throughout the dense elimination (MNA assembly accumulates
// from +0 and IEEE-754 addition/subtraction of non-negative-zero terms
// never produces -0), so the multiply-adds the sparse path skips would
// have contributed exactly ±0 to sums that are themselves never -0.
// The one place the two factored arrays differ is the dense path's
// ±0 multipliers stored at structurally-zero L cells; those never
// reach an arithmetic result, which the solver's property tests pin
// down by comparing solve outputs and determinants bit for bit.
type SparseLU struct {
	n     int
	dense *LU
	pat   []bool
	// patIdx lists the flat indices of the pattern cells; the numeric
	// replay initialises exactly these from the input matrix (plus the
	// analysis's zero cells) instead of copying all n² cells — for the
	// banded ladder system that turns a half-megabyte copy per
	// factorisation into a few thousand indexed moves.
	patIdx []int32
	sym    *symbolic
	// cands holds every symbolic analysis learned so far, keyed by a
	// hash of its pivot sequence (hash collisions resolved by exact
	// comparison). Newton solves revisit the same sequences over and
	// over (device operating regions shift the column magnitudes, the
	// convergence aids shift the diagonals — a transient walks through
	// a few hundred distinct sequences and then repeats them), so a
	// dense fallback first looks for an existing analysis of the
	// sequence it just recorded before paying for a new one — steady
	// state then re-analyses nothing, no matter how often the pivots
	// flip.
	cands  map[uint64][]*symbolic
	nCands int
	// mru holds the most recently used analyses, most recent first. A
	// transient's pivot sequences flip within a small working set, so
	// on a mismatch at step k with observed pivot p the right analysis
	// is almost always one of these: any candidate agreeing with the
	// verified prefix and choosing p at step k can be retried sparsely
	// instead of falling back to the dense path.
	mru [8]*symbolic
	// lastSparse selects the triangular-solve structure matching the
	// most recent factorisation (the dense fallback fills L cells the
	// symbolic structure does not track).
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
// pattern. The pattern is captured by value; later Marks are ignored.
func NewSparseLU(p *Pattern) *SparseLU {
	pat := make([]bool, len(p.nz))
	copy(pat, p.nz)
	return &SparseLU{
		n:      p.N,
		dense:  NewLU(p.N),
		pat:    pat,
		patIdx: append([]int32(nil), p.idx...),
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

// Refactor factors m, preferring the symbolic path and falling back to
// the dense LU on first use or on a pivot-cache mismatch. m must have
// its nonzeros inside the workspace's pattern (unmarked cells exactly
// +0), which holds by construction for MNA-assembled matrices. The
// returned path reports which implementation ran; the numeric result
// is identical either way. Errors match the dense LU's.
func (s *SparseLU) Refactor(m *Matrix) (FactorPath, error) {
	if m.N != s.n {
		return FactorDense, fmt.Errorf("solver: refactor size %d into sparse workspace of size %d", m.N, s.n)
	}
	if s.sym != nil {
		// Up to three sparse attempts: the cached sequence, then known
		// sequences that agree with the prefix verified so far and the
		// pivot observed at the failing step. Each retry strictly extends
		// the verified prefix, so the loop cannot revisit a candidate.
		for attempt := 0; attempt < 3; attempt++ {
			ok, failK, failP, err := s.refactorSparse(m)
			if err != nil {
				// The sparse path is arithmetic-identical up to the
				// failing step, so the dense path would report the same
				// singularity.
				return FactorSparse, err
			}
			if ok {
				s.lastSparse = true
				s.touch(s.sym)
				if attempt > 0 {
					return FactorSparseRetry, nil
				}
				return FactorSparse, nil
			}
			alt := s.altCandidate(s.sym, failK, failP)
			if alt == nil {
				break
			}
			s.sym = alt
		}
	}
	path := FactorDense
	if s.sym == nil {
		path = FactorDenseLearn
	}
	s.lastSparse = false
	if err := s.dense.Refactor(m); err != nil {
		// The recorded step sequence is partial; drop any stale
		// analysis so the next call re-learns from scratch.
		s.sym = nil
		return path, err
	}
	s.sym = s.analysisFor(s.dense.step)
	s.touch(s.sym)
	return path, nil
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
	sym := buildSymbolic(s.pat, s.n, step, s.symW)
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

// refactorSparse replays the elimination over the symbolic structure,
// verifying the pivot choice of every step against the cache. Returns
// ok=false (workspace contents undefined) when the numeric pivot
// diverges from the cached sequence, along with the failing step and
// the pivot row the dense argmax would have chosen there.
func (s *SparseLU) refactorSparse(m *Matrix) (ok bool, failK int, failP int32, err error) {
	n := s.n
	f := s.dense
	sym := s.sym
	lu := f.lu
	// Initialise only the cells the replay will touch: pattern cells
	// carry the input values, fill/diagonal targets the exact +0 the
	// dense elimination would find there. Cells outside both sets keep
	// stale garbage — the structure guarantees they are never read, and
	// the row interchanges only shuffle them among equally-unread cells.
	a := m.A
	for _, idx := range s.patIdx {
		lu[idx] = a[idx]
	}
	for _, idx := range sym.zero {
		lu[idx] = 0
	}
	f.sign = 1
	for i := range f.piv {
		f.piv[i] = i
	}
	const tiny = 1e-300
	for k := 0; k < n; k++ {
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
			return false, 0, 0, fmt.Errorf("%w: pivot %d (|p|=%g)", ErrSingular, k, max)
		}
		if p != int(sym.piv[k]) {
			return false, k, int32(p), nil
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		f.step[k] = int32(p)
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
	return true, 0, 0, nil
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
		return s.dense.SolveInto(x, b)
	}
	checkNoAlias(x, b)
	n := s.n
	f := s.dense
	lu := f.lu
	sym := s.sym
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
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
func (s *SparseLU) Det() float64 { return s.dense.Det() }
