// Package spice is the analog simulation engine of the reproduction: a
// modified-nodal-analysis (MNA) solver over the circuits of
// internal/netlist. It provides the two analyses the defect-oriented test
// path needs — a robust DC operating point (Newton–Raphson with gmin
// stepping and source stepping fallbacks) and a fixed-step backward-Euler
// transient — plus branch-current measurement through voltage sources,
// which is how the methodology's IVdd/IDDQ/Iinput observations are made.
package spice

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/solver"
)

// ErrNoConvergence is returned when every convergence aid is exhausted.
var ErrNoConvergence = errors.New("spice: no convergence")

// IsCancelled reports whether err is (or wraps) a context cancellation
// or deadline — the one analysis error that must NOT be classified as a
// fault signature by the layers above.
func IsCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Options tune the solver.
type Options struct {
	// AbsTol/RelTol terminate Newton iteration on voltage deltas.
	AbsTol, RelTol float64
	// MaxIter bounds Newton iterations per solve.
	MaxIter int
	// Gmin is the baseline convergence conductance at nonlinear devices.
	Gmin float64
	// MaxStep clamps per-node Newton voltage updates (damping).
	MaxStep float64
	// OPTrace, if non-nil, observes the operating-point convergence
	// ladder: "newton-ok" (plain Newton converged), "gmin" / "gmin-ok"
	// (gmin-stepping homotopy entered / succeeded), "source" /
	// "source-ok" (source stepping entered / succeeded) and
	// "source-gmin-retry" every time a stalled source-stepping rung is
	// re-attempted with elevated gmin. Intended for tests and diagnosis
	// of hard-to-converge circuits.
	OPTrace func(stage string)
	// Metrics, if non-nil, receives the hot-path counters (Newton
	// iterations, LU solves, gmin/source retries). The engine's owner
	// reads it between solves; nil discards every count for free.
	Metrics *obs.Metrics
}

// DefaultOptions returns robust settings for 5 V macro-cell circuits.
func DefaultOptions() Options {
	return Options{AbsTol: 1e-6, RelTol: 1e-4, MaxIter: 150, Gmin: 1e-12, MaxStep: 1.0}
}

// aOp and bOp are recorded stamp operations: accumulate v into the
// flattened matrix cell k, respectively RHS row i.
type aOp struct {
	k int
	v float64
}
type bOp struct {
	i int
	v float64
}

// Engine binds a circuit to the MNA solver. All Newton/assembly/solve
// working storage lives on the Engine and is reused across every OP,
// transient step and AC linearisation, so steady-state simulation is
// allocation-free; consequently an Engine must not be used from multiple
// goroutines at once (the campaign layers create one engine per analysis,
// which is also what amortises these workspaces over thousands of Newton
// iterations).
type Engine struct {
	Ckt *netlist.Circuit
	Opt Options

	// met receives the hot-path counters (aliases Opt.Metrics; nil
	// discards). ctx/done are rebound by every top-level analysis entry
	// (OPAt, TransientSchedule): done is polled between Newton
	// iterations and transient steps so a cancellation aborts a wedged
	// solve in bounded time — at most one LU factorisation after the
	// context fires.
	met  *obs.Metrics
	ctx  context.Context
	done <-chan struct{}

	nUnknowns int
	nNodeVars int
	auxBase   []int          // per element index
	auxOf     map[string]int // vsource name -> aux index

	// progs caches the compiled per-mode stamp programs (lazily built:
	// index by netlist.StampMode).
	progs [2]*netlist.StampProgram

	// Reusable Newton workspaces.
	a      *solver.Matrix // MNA matrix
	b      []float64      // RHS
	wx     []float64      // current Newton iterate
	xNew   []float64      // linear-solve target
	zeros  []float64      // all-zero vector; never written
	opX    []float64      // OPAt continuation iterate
	subX   []float64      // transient local-refinement iterate
	retryX []float64      // tranStep elevated-gmin intermediate

	// Recorded linear-element ops for the current Newton solve, with
	// per-linear-segment end offsets (parallel to the program's linear
	// segments, in order).
	recA    []aOp
	recB    []bOp
	segEndA []int
	segEndB []int
	curProg *netlist.StampProgram

	// A-side recording cache. The matrix ops of the linear elements
	// (Resistor, Capacitor, VSource, ISource) depend only on the stamp
	// mode, dt, gmin and srcScale — never on Time or XPrev, which reach
	// only the right-hand side — and element terminals are fixed once an
	// engine exists (faults are injected before spice.New). So when a
	// solve repeats the key of the previous recording (every transient
	// step after the first), beginSolve keeps recA/segEndA and re-records
	// just the B side, discarding the A-side stamps into a dump sink.
	recValid               bool
	recProg                *netlist.StampProgram
	recDt, recGmin, recSrc float64
	recAppendA             func(i, j int, v float64)

	// slu holds the per-stamp-mode sparsity-aware factorisation
	// workspaces (indexed by netlist.StampMode, lazily built from a
	// pattern probe of the compiled stamp program). Each factorisation
	// replays the cached elimination structure and continues densely
	// from the first step whose pivot no known structure predicts;
	// results are bit-identical either way. It factors a in place, so
	// a holds the LU factors from a Refactor until the next assemble.
	slu [2]*solver.SparseLU

	// Transient snapshot arena: backing storage for Tran.Xs (and the
	// Times/Xs headers) reused across analyses on the same engine, so
	// repeated transients reach an allocation-free steady state. The
	// previous analysis's Tran is overwritten by the next one — see the
	// TransientSchedule contract.
	arena     []float64
	arenaOff  int
	arenaNeed int
	timesBuf  []float64
	xsBuf     [][]float64

	// AC sweep workspaces (lazily built by AC).
	acA  *solver.CMatrix
	acB  []complex128
	aclu *solver.CLU

	// Persistent stamping contexts: liveCtx accumulates straight into
	// a/b (nonlinear per-iteration stamps), recCtx appends to recA/recB
	// (linear once-per-solve recording). Their closures are built once
	// here and read curX/curPrev indirectly, so assembly allocates
	// nothing.
	liveCtx *netlist.Context
	recCtx  *netlist.Context
	curX    []float64
	curPrev []float64
}

// New prepares an engine for the circuit.
func New(ckt *netlist.Circuit, opt Options) *Engine {
	e := &Engine{Ckt: ckt, Opt: opt, met: opt.Metrics, auxOf: map[string]int{}}
	e.nNodeVars = ckt.NumNodes() - 1
	next := e.nNodeVars
	e.auxBase = make([]int, len(ckt.Elems))
	for i, el := range ckt.Elems {
		e.auxBase[i] = next
		if n := el.NumAux(); n > 0 {
			e.auxOf[el.Name()] = next
			next += n
		}
	}
	e.nUnknowns = next

	n := e.nUnknowns
	e.a = solver.NewMatrix(n)
	e.b = make([]float64, n)
	e.wx = make([]float64, n)
	e.xNew = make([]float64, n)
	e.zeros = make([]float64, n)
	e.opX = make([]float64, n)
	e.subX = make([]float64, n)
	e.retryX = make([]float64, n)

	// The accumulation closures capture the backing slices directly
	// (they are never reallocated) so each stamp call skips the pointer
	// chases through the engine; X/XPrev must go through the engine
	// because curX/curPrev are retargeted per solve.
	aa, bb := e.a.A, e.b
	e.liveCtx = &netlist.Context{
		X: func(nd netlist.NodeID) float64 {
			if nd == netlist.Ground {
				return 0
			}
			return e.curX[int(nd)-1]
		},
		XPrev: func(nd netlist.NodeID) float64 {
			if nd == netlist.Ground {
				return 0
			}
			return e.curPrev[int(nd)-1]
		},
		A: func(i, j int, v float64) { aa[i*n+j] += v },
		B: func(i int, v float64) { bb[i] += v },
		// Dense fast path: nonlinear stamps during live assembly write
		// the matrix and RHS directly instead of going through the
		// closures above (same additions, same order).
		ADense: aa,
		BDense: bb,
		N:      n,
	}
	e.recAppendA = func(i, j int, v float64) { e.recA = append(e.recA, aOp{i*n + j, v}) }
	e.recCtx = &netlist.Context{
		// Linear stamps are X-independent by contract; reading X while
		// recording would silently replay a stale iterate, so fail fast.
		X: func(netlist.NodeID) float64 {
			panic("spice: linear element read X during stamp recording")
		},
		XPrev: func(nd netlist.NodeID) float64 {
			if nd == netlist.Ground {
				return 0
			}
			return e.curPrev[int(nd)-1]
		},
		A: e.recAppendA,
		B: func(i int, v float64) { e.recB = append(e.recB, bOp{i, v}) },
		N: n,
	}
	return e
}

// SetMetrics rebinds the engine's hot-path counter block. Pooled engines
// are checked out by analyses that each own a Metrics block, so the
// binding must follow the engine across checkouts; counters never feed
// back into the numerics, so rebinding cannot change any result.
func (e *Engine) SetMetrics(m *obs.Metrics) {
	e.Opt.Metrics = m
	e.met = m
}

// RetuneVSource replaces the waveform of the named voltage source on a
// live engine. A VSource's matrix stamps are its value-independent ±1
// aux couplings, so the recorded A-side replay stays valid, and the
// source value reaches only the right-hand side, which every solve
// re-records — analyses after a retune are bit-identical to those of a
// fresh engine built with the new waveform. (Mutating any other
// value-bearing element kind — resistors, capacitors, MOS models —
// must go through Revalue, which drops the A-side recording when one
// of those values changes.)
func (e *Engine) RetuneVSource(name string, w netlist.Waveform) error {
	el := e.Ckt.Element(name)
	if el == nil {
		return fmt.Errorf("spice: retune: no element %q", name)
	}
	vs, ok := el.(*netlist.VSource)
	if !ok {
		return fmt.Errorf("spice: retune: element %q is not a voltage source", name)
	}
	vs.W = w
	return nil
}

// Revalue applies a parameter binding to the engine's circuit in place:
// the compile-once/revalue-many entry point. The topology is untouched,
// so every compiled artifact is retained — node and aux numbering, the
// per-mode stamp programs, the structural sparsity patterns and the
// sparse symbolic analyses (the cached elimination is pivot-verified
// per factorisation with a bit-identical dense continuation, so revalued
// matrices are automatically safe on the cached structure). Only when
// an A-side value actually changed (bitwise) is the A-side stamp
// recording dropped; a B-side-only rebind — retuning sources between
// ramp slices — keeps it, generalising the RetuneVSource rule.
//
// After a successful Revalue the engine's analyses are bit-identical to
// those of a freshly built engine whose builder produced the bound
// values: the next solve re-records the linear stamps from the new
// element fields through the same code in the same element order.
//
// On error the circuit may be partially revalued; the caller must
// discard the engine (the macro layer falls back to a full rebuild).
func (e *Engine) Revalue(b *netlist.Binding) error {
	aChanged, err := e.Ckt.Rebind(b)
	if err != nil {
		return err
	}
	if aChanged {
		e.recValid = false
	}
	if e.slu[netlist.DCOp] != nil || e.slu[netlist.Transient] != nil {
		// The revalued solves will reuse a learned symbolic analysis
		// instead of re-probing the pattern and re-learning.
		e.met.Add(obs.CtrPatternReuse, 1)
	}
	return nil
}

// StampChecksum assembles the mode's linearised system at the all-zero
// iterate (time t, timestep dt, default gmin, unit source scale) and
// returns an FNV-1a hash over the exact float64 bits of the matrix and
// right-hand side. Two engines whose checksums match for a mode stamp
// bit-identical systems there — the verification hook behind the
// rebind-equals-rebuild property tests. It shares the solve workspaces,
// so it must not be called concurrently with an analysis; interleaving
// it between analyses is safe (each solve re-records its own stamps).
func (e *Engine) StampChecksum(mode netlist.StampMode, t, dt float64) uint64 {
	e.beginSolve(mode, t, dt, e.Opt.Gmin, 1, e.zeros)
	e.assemble(e.zeros)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v float64) {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime64
		}
	}
	for _, v := range e.a.A {
		mix(v)
	}
	for _, v := range e.b {
		mix(v)
	}
	return h
}

// bind installs the context governing one top-level analysis. A nil ctx
// (legacy callers, tests) binds the never-cancelled background context.
func (e *Engine) bind(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.done = ctx.Done()
}

// cancelled polls the bound context without blocking. It is the per-
// iteration abort check of the Newton loop and the transient stepper: a
// single select on the cached done channel, no allocation.
func (e *Engine) cancelled() error {
	if e.done == nil {
		return nil
	}
	select {
	case <-e.done:
		return e.ctx.Err()
	default:
		return nil
	}
}

// prog returns (compiling on first use) the stamp program for a mode.
func (e *Engine) prog(mode netlist.StampMode) *netlist.StampProgram {
	if p := e.progs[mode]; p != nil {
		return p
	}
	p := netlist.CompileStamps(e.Ckt, mode, e.auxBase)
	e.progs[mode] = p
	return p
}

// sparseLU returns (building on first use) the mode's sparsity-aware
// factorisation workspace.
func (e *Engine) sparseLU(mode netlist.StampMode) *solver.SparseLU {
	if f := e.slu[mode]; f != nil {
		return f
	}
	f := solver.NewSparseLU(e.stampPattern(mode))
	e.slu[mode] = f
	return f
}

// stampPattern records the structural nonzero pattern of one mode's
// stamp program by replaying it into a probing context that captures
// matrix cell positions and discards values. Stamp positions depend
// only on element terminals and aux numbering — never on the iterate,
// the time or the element values — so the pattern recorded here covers
// every cell any later assembly can touch. Dt, Gmin and SrcScale are
// probed nonzero so value-gated stamp branches (the backward-Euler
// companions, the convergence-aid conductances) contribute their cells;
// a superset pattern is safe, a miss would not be.
func (e *Engine) stampPattern(mode netlist.StampMode) *solver.Pattern {
	n := e.nUnknowns
	pat := solver.NewPattern(n)
	zero := func(netlist.NodeID) float64 { return 0 }
	probe := &netlist.Context{
		Mode: mode,
		Dt:   1, Gmin: 1, SrcScale: 1,
		X: zero, XPrev: zero,
		A: func(i, j int, v float64) { pat.Mark(i, j) },
		B: func(int, float64) {},
		N: n,
	}
	for _, it := range e.prog(mode).Items {
		it.El.Stamp(probe, it.AuxBase)
	}
	// assemble adds the node-leak diagonal outside the stamp program.
	for i := 0; i < e.nNodeVars; i++ {
		pat.Mark(i, i)
	}
	return pat
}

// Solution is a solved vector of node voltages and branch currents.
type Solution struct {
	e *Engine
	X []float64
}

// V returns the voltage of the named node.
func (s *Solution) V(name string) float64 {
	id, ok := s.e.Ckt.NodeByName(name)
	if !ok {
		panic(fmt.Sprintf("spice: unknown node %q", name))
	}
	return s.VNode(id)
}

// VNode returns the voltage of node n.
func (s *Solution) VNode(n netlist.NodeID) float64 {
	if n == netlist.Ground {
		return 0
	}
	return s.X[int(n)-1]
}

// I returns the current delivered by the named voltage source out of its
// + terminal into the circuit. For a supply "vdd"→ground powering a load,
// I is positive and equals the supply current drawn.
func (s *Solution) I(vsrc string) float64 {
	aux, ok := s.e.auxOf[vsrc]
	if !ok {
		panic(fmt.Sprintf("spice: no aux current for element %q", vsrc))
	}
	// MNA aux is the branch current flowing from + through the source
	// to −; the current delivered to the external circuit is −aux.
	return -s.X[aux]
}

// beginSolve prepares one Newton solve: it configures both stamping
// contexts for the solve-constant parameters and records the stamp ops of
// every linear element into the replay buffers. Within a solve only the
// iterate X changes, so the recording — including time-dependent source
// values and the capacitors' backward-Euler companions against xPrev —
// stays valid for every iteration.
func (e *Engine) beginSolve(mode netlist.StampMode, time, dt, gmin, srcScale float64, xPrev []float64) {
	e.curProg = e.prog(mode)
	e.curPrev = xPrev
	e.recB = e.recB[:0]
	e.segEndB = e.segEndB[:0]
	// The A-side recording can be kept whenever the previous solve
	// recorded the same program under the same dt/gmin/srcScale (see the
	// cache fields); then only the time/xPrev-dependent B side needs
	// re-recording.
	hit := e.recValid && e.recProg == e.curProg &&
		e.recDt == dt && e.recGmin == gmin && e.recSrc == srcScale

	rc := e.recCtx
	rc.Mode, rc.Time, rc.Dt, rc.SrcScale, rc.Gmin = mode, time, dt, srcScale, gmin
	rc.XPrevDense = xPrev
	e.liveCtx.XPrevDense = xPrev
	if hit {
		// Discard A-side stamps by sinking them into the MNA matrix,
		// which assemble zeroes before its first use anyway; the inlined
		// dense writes are cheaper than a dropping closure call.
		rc.ADense = e.a.A
	} else {
		rc.ADense = nil // route A ops to the recording closure
		e.recA = e.recA[:0]
		e.segEndA = e.segEndA[:0]
	}
	for _, seg := range e.curProg.Segs {
		if !seg.Linear {
			continue
		}
		if hit {
			// Only the B side needs re-recording; elements with a
			// compiled BStamper view skip the A-side work their Stamp
			// would compute into the discard sink.
			for _, it := range e.curProg.Items[seg.From:seg.To] {
				if it.BS != nil {
					it.BS.StampB(rc, it.AuxBase)
				} else {
					it.El.Stamp(rc, it.AuxBase)
				}
			}
		} else {
			for _, it := range e.curProg.Items[seg.From:seg.To] {
				it.El.Stamp(rc, it.AuxBase)
			}
		}
		if !hit {
			e.segEndA = append(e.segEndA, len(e.recA))
		}
		e.segEndB = append(e.segEndB, len(e.recB))
	}
	e.recValid = true
	e.recProg, e.recDt, e.recGmin, e.recSrc = e.curProg, dt, gmin, srcScale

	lc := e.liveCtx
	lc.Mode, lc.Time, lc.Dt, lc.SrcScale, lc.Gmin = mode, time, dt, srcScale, gmin
}

// assemble builds the linearised MNA system at iterate x by walking the
// compiled stamp program: recorded linear ops are replayed and nonlinear
// elements re-stamped, interleaved in original element order so the
// floating-point accumulation order matches naive per-element stamping
// bit for bit.
func (e *Engine) assemble(x []float64) {
	e.a.Zero()
	b := e.b
	for i := range b {
		b[i] = 0
	}
	e.curX = x
	e.liveCtx.XDense = x
	aa := e.a.A
	ai, bi, si := 0, 0, 0
	for _, seg := range e.curProg.Segs {
		if seg.Linear {
			endA, endB := e.segEndA[si], e.segEndB[si]
			si++
			for ; ai < endA; ai++ {
				op := e.recA[ai]
				aa[op.k] += op.v
			}
			for ; bi < endB; bi++ {
				op := e.recB[bi]
				b[op.i] += op.v
			}
			continue
		}
		for _, it := range e.curProg.Items[seg.From:seg.To] {
			it.El.Stamp(e.liveCtx, it.AuxBase)
		}
	}
	// A tiny leak at every node keeps floating subcircuits solvable
	// (split nets from open faults, gates of off devices, …).
	const leak = 1e-12
	n := e.nUnknowns
	for i := 0; i < e.nNodeVars; i++ {
		aa[i*n+i] += leak
	}
}

// newton runs Newton–Raphson from x0 and writes the converged vector into
// dst on success (dst is untouched on failure). dst may alias x0 and —
// because xPrev is only read while recording the linear stamps up front —
// also xPrev. All working state lives in the Engine workspaces, so a
// solve performs no allocations.
func (e *Engine) newton(dst, x0, xPrev []float64, mode netlist.StampMode,
	time, dt, gmin, srcScale float64) error {
	n := e.nUnknowns
	x := e.wx
	copy(x, x0)
	lu := e.sparseLU(mode)
	e.beginSolve(mode, time, dt, gmin, srcScale, xPrev)
	for iter := 0; iter < e.Opt.MaxIter; iter++ {
		if err := e.cancelled(); err != nil {
			return err
		}
		e.met.Add(obs.CtrNewtonIters, 1)
		e.assemble(x)
		path, err := lu.Refactor(e.a)
		if err != nil {
			return fmt.Errorf("iter %d: %w", iter, err)
		}
		if path.Sparse() {
			e.met.Add(obs.CtrSparseFactorHits, 1)
		} else {
			e.met.Add(obs.CtrDenseFallbacks, 1)
		}
		switch path {
		case solver.FactorSparseRetry:
			e.met.Add(obs.CtrSparseRetryHits, 1)
		case solver.FactorDenseLearn:
			e.met.Add(obs.CtrDenseLearns, 1)
		}
		xNew := lu.SolveInto(e.xNew, e.b)
		e.met.Add(obs.CtrLUSolves, 1)
		// Damp node-voltage updates; leave branch currents free.
		conv := true
		for i := 0; i < n; i++ {
			dx := xNew[i] - x[i]
			if i < e.nNodeVars {
				if dx > e.Opt.MaxStep {
					dx = e.Opt.MaxStep
					conv = false
				} else if dx < -e.Opt.MaxStep {
					dx = -e.Opt.MaxStep
					conv = false
				}
				if math.Abs(dx) > e.Opt.AbsTol+e.Opt.RelTol*math.Abs(x[i]) {
					conv = false
				}
			} else {
				if math.Abs(dx) > 1e-9+e.Opt.RelTol*math.Abs(x[i]) {
					conv = false
				}
			}
			x[i] += dx
		}
		if conv {
			copy(dst, x)
			return nil
		}
	}
	return ErrNoConvergence
}

// OP computes the DC operating point at t = 0. Cancelling ctx aborts
// the solve between Newton iterations; the returned error then satisfies
// IsCancelled.
func (e *Engine) OP(ctx context.Context) (*Solution, error) {
	return e.OPAt(ctx, 0)
}

// trace reports an operating-point ladder stage to Options.OPTrace.
func (e *Engine) trace(stage string) {
	if e.Opt.OPTrace != nil {
		e.Opt.OPTrace(stage)
	}
}

// solution snapshots a workspace vector into a caller-owned Solution.
func (e *Engine) solution(x []float64) *Solution {
	return &Solution{e: e, X: append([]float64(nil), x...)}
}

// OPAt computes the DC operating point with time-dependent sources
// evaluated at the given time (capacitors open). Cancelling ctx aborts
// the fallback ladder between Newton iterations — a cancellation error
// is returned as-is, never converted into the next convergence aid.
func (e *Engine) OPAt(ctx context.Context, time float64) (*Solution, error) {
	e.bind(ctx)
	return e.opAt(time)
}

// opAt is the ladder body, running under the already-bound context.
func (e *Engine) opAt(time float64) (*Solution, error) {
	zero := e.zeros
	x := e.opX

	// 1. Plain Newton from zero.
	if err := e.newton(x, zero, zero, netlist.DCOp, time, 0, e.Opt.Gmin, 1); err == nil {
		e.trace("newton-ok")
		return e.solution(x), nil
	} else if IsCancelled(err) {
		return nil, err
	}

	// 2. Gmin stepping.
	e.trace("gmin")
	copy(x, zero)
	ok := true
	for g := 1e-2; g >= e.Opt.Gmin; g /= 10 {
		e.met.Add(obs.CtrGminRetries, 1)
		if err := e.newton(x, x, zero, netlist.DCOp, time, 0, g, 1); err != nil {
			if IsCancelled(err) {
				return nil, err
			}
			ok = false
			break
		}
	}
	if ok {
		if err := e.newton(x, x, zero, netlist.DCOp, time, 0, e.Opt.Gmin, 1); err == nil {
			e.trace("gmin-ok")
			return e.solution(x), nil
		} else if IsCancelled(err) {
			return nil, err
		}
	}

	// 3. Source stepping.
	e.trace("source")
	copy(x, zero)
	for s := 0.05; ; s += 0.05 {
		if s > 1 {
			s = 1
		}
		e.met.Add(obs.CtrSourceRetries, 1)
		if err := e.newton(x, x, zero, netlist.DCOp, time, 0, e.Opt.Gmin, s); err != nil {
			if IsCancelled(err) {
				return nil, err
			}
			// Retry the failed rung with elevated gmin before giving up.
			e.trace("source-gmin-retry")
			e.met.Add(obs.CtrSourceRetries, 1)
			if err := e.newton(x, x, zero, netlist.DCOp, time, 0, 1e-6, s); err != nil {
				if IsCancelled(err) {
					return nil, err
				}
				return nil, fmt.Errorf("%w (source stepping stalled at %.2f)", ErrNoConvergence, s)
			}
		}
		if s >= 1 {
			e.trace("source-ok")
			return e.solution(x), nil
		}
	}
}

// Tran is a transient result: solution snapshots at every accepted step.
type Tran struct {
	e     *Engine
	Times []float64
	Xs    [][]float64
}

// Len returns the number of stored timepoints.
func (t *Tran) Len() int { return len(t.Times) }

// At returns the solution at stored index i.
func (t *Tran) At(i int) *Solution { return &Solution{e: t.e, X: t.Xs[i]} }

// AtTime returns the last stored solution with time <= tm (or the first).
func (t *Tran) AtTime(tm float64) *Solution {
	lo := 0
	for i, tt := range t.Times {
		if tt <= tm {
			lo = i
		} else {
			break
		}
	}
	return t.At(lo)
}

// V returns the waveform of the named node.
func (t *Tran) V(name string) []float64 {
	out := make([]float64, t.Len())
	for i := range t.Xs {
		out[i] = t.At(i).V(name)
	}
	return out
}

// I returns the delivered-current waveform of the named voltage source.
func (t *Tran) I(vsrc string) []float64 {
	out := make([]float64, t.Len())
	for i := range t.Xs {
		out[i] = t.At(i).I(vsrc)
	}
	return out
}

// MeanBetween averages samples of w (a waveform aligned with t.Times) over
// the window [t0, t1].
func (t *Tran) MeanBetween(w []float64, t0, t1 float64) float64 {
	var sum float64
	var n int
	for i, tt := range t.Times {
		if tt >= t0 && tt <= t1 {
			sum += w[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TranSeg is one segment of a piecewise-timestep transient: integrate with
// step Dt until time Until.
type TranSeg struct {
	Until, Dt float64
}

// Transient runs a fixed-step backward-Euler transient from t = 0 to
// tstop with nominal step dt, starting from the DC operating point at
// t = 0. When a step fails to converge it is retried with up to 64× local
// step refinement. Cancelling ctx aborts between steps and between the
// Newton iterations inside a step; the error then satisfies IsCancelled.
func (e *Engine) Transient(ctx context.Context, tstop, dt float64) (*Tran, error) {
	return e.TransientSchedule(ctx, []TranSeg{{Until: tstop, Dt: dt}})
}

// TransientSchedule runs a backward-Euler transient with a piecewise
// timestep schedule. Fast regenerative windows (latch onset) use fine
// steps while quiet phases use coarse ones — backward Euler artificially
// damps unstable (regenerative) modes when h·λ is large, so the latch
// decision window must be resolved finely.
//
// The returned Tran aliases engine-owned snapshot storage that the next
// transient on this engine reuses: read (or copy out) everything needed
// from a Tran before starting another analysis on the same engine.
func (e *Engine) TransientSchedule(ctx context.Context, segs []TranSeg) (*Tran, error) {
	e.bind(ctx)
	op, err := e.opAt(0)
	if err != nil {
		return nil, fmt.Errorf("transient initial OP: %w", err)
	}
	e.resetArena()
	tr := &Tran{e: e, Times: e.timesBuf[:0], Xs: e.xsBuf[:0]}
	x := op.X // freshly allocated by OP; owned by tr from here on
	tr.Times = append(tr.Times, 0)
	tr.Xs = append(tr.Xs, x)

	t := 0.0
	for _, seg := range segs {
		if x, t, err = e.runSegment(tr, x, t, seg.Until, seg.Dt); err != nil {
			return nil, err
		}
	}
	// Hand the (possibly grown) headers back to the arena so the next
	// run starts from their full capacity.
	e.timesBuf, e.xsBuf = tr.Times, tr.Xs
	return tr, nil
}

// resetArena rewinds the snapshot arena for a new transient, growing
// the slab to the previous run's high-water mark so a steady-state
// engine serves every snapshot from reused storage.
func (e *Engine) resetArena() {
	if e.arenaNeed > len(e.arena) {
		e.arena = make([]float64, e.arenaNeed)
	}
	e.arenaOff, e.arenaNeed = 0, 0
}

// snap carves one snapshot vector out of the arena (falling back to a
// plain allocation while the slab is still growing towards this run's
// demand). The contents are written by the caller before any read.
func (e *Engine) snap() []float64 {
	n := e.nUnknowns
	e.arenaNeed += n
	if e.arenaOff+n > len(e.arena) {
		return make([]float64, n)
	}
	s := e.arena[e.arenaOff : e.arenaOff+n : e.arenaOff+n]
	e.arenaOff += n
	return s
}

// runSegment advances the transient to tstop with nominal step dt,
// appending snapshots to tr. Snapshots come from the engine's arena, so
// a steady-state engine performs no per-step allocations at all.
func (e *Engine) runSegment(tr *Tran, x []float64, t, tstop, dt float64) ([]float64, float64, error) {
	for t < tstop-1e-18 {
		step := dt
		if t+step > tstop {
			step = tstop - t
		}
		nx := e.snap() // this step's stored snapshot
		if err := e.tranStep(nx, x, t, step); err != nil {
			// A cancellation is an abort, not a convergence failure:
			// skip the refinement ladder entirely.
			if IsCancelled(err) {
				return nil, 0, err
			}
			// Local refinement: substeps at step/2^k.
			solved := false
			for k := 1; k <= 6 && !solved; k++ {
				sub := step / math.Pow(2, float64(k))
				xs := e.subX
				copy(xs, x)
				tt := t
				okAll := true
				for i := 0; i < 1<<k; i++ {
					if err2 := e.tranStep(xs, xs, tt, sub); err2 != nil {
						if IsCancelled(err2) {
							return nil, 0, err2
						}
						okAll = false
						break
					}
					tt += sub
				}
				if okAll {
					copy(nx, xs)
					solved = true
				}
			}
			if !solved {
				return nil, 0, fmt.Errorf("transient step at t=%g: %w", t, err)
			}
		}
		t += step
		x = nx
		tr.Times = append(tr.Times, t)
		tr.Xs = append(tr.Xs, nx)
	}
	return x, t, nil
}

// tranStep advances one backward-Euler step of size dt from state x at
// time t, writing the state at t+dt into dst. dst may alias x.
func (e *Engine) tranStep(dst, x []float64, t, dt float64) error {
	err := e.newton(dst, x, x, netlist.Transient, t+dt, dt, e.Opt.Gmin, 1)
	if err == nil {
		return nil
	}
	if IsCancelled(err) {
		return err
	}
	// One retry with elevated gmin, then polish. The intermediate lands
	// in retryX so the previous state x (which dst may alias) survives
	// until the polish has read it.
	e.met.Add(obs.CtrGminRetries, 1)
	if err2 := e.newton(e.retryX, x, x, netlist.Transient, t+dt, dt, 1e-9, 1); err2 != nil {
		if IsCancelled(err2) {
			return err2
		}
		return err
	}
	if err3 := e.newton(dst, e.retryX, x, netlist.Transient, t+dt, dt, e.Opt.Gmin, 1); err3 == nil {
		return nil
	} else if IsCancelled(err3) {
		return err3
	}
	copy(dst, e.retryX)
	return nil
}
