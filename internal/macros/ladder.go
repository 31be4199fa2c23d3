package macros

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/adc"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/signature"
	"repro/internal/solver"
	"repro/internal/spice"
)

// LadderMacro is the reference resistor string: the vehicle's 2^N
// matched polysilicon segments between the external reference terminals,
// folded into a serpentine so that physically adjacent runs are
// electrically many taps apart (which is what makes its shorts so
// current-observable — the paper found 99.8 % of ladder faults
// current-detectable). Each tap drives one comparator slice.
type LadderMacro struct {
	// Veh is the vehicle spec: segment/tap count and nominal segment
	// resistance (Vehicle.LadderSegments, Vehicle.RSeg) derive from it.
	Veh Vehicle
}

// LadderRowLen is the number of segments per serpentine row.
const LadderRowLen = 16

// NewLadder returns the ladder macro of the given vehicle.
func NewLadder(veh Vehicle) *LadderMacro { return &LadderMacro{Veh: veh} }

// Name implements Macro.
func (l *LadderMacro) Name() string { return "ladder" }

// Count implements Macro.
func (l *LadderMacro) Count() int { return 1 }

// ladderNames formats the tap net names t000.. and segment resistor
// names r000.. of the largest supported vehicle once: every rebuild
// names each tap and segment, and every solve reads each tap by name.
var ladderNames = sync.OnceValues(func() (taps, segs []string) {
	n := 1 << MaxBits
	taps, segs = make([]string, n+1), make([]string, n)
	for k := range taps {
		taps[k] = fmt.Sprintf("t%03d", k)
	}
	for i := range segs {
		segs[i] = fmt.Sprintf("r%03d", i)
	}
	return taps, segs
})

// tapName returns the canonical net name of tap k (0..segments).
func tapName(k int) string {
	taps, _ := ladderNames()
	return taps[k]
}

// segName returns the name of the resistor of segment i (taps i, i+1).
func segName(i int) string {
	_, segs := ladderNames()
	return segs[i]
}

// buildLadderCircuit constructs the resistor string with its reference
// sources. Taps 0 and 2^N are the external terminals.
func (l *LadderMacro) buildLadderCircuit(v Variation) *netlist.Builder {
	b := netlist.NewBuilder()
	l.buildLadderInto(b, v)
	return b
}

// buildLadderInto runs the construction against the given builder. The
// same path builds a new engine's circuit and the circuit a pooled
// engine is revalued from, so the two cannot drift.
func (l *LadderMacro) buildLadderInto(b *netlist.Builder, v Variation) {
	segs, rseg := l.Veh.LadderSegments(), l.Veh.RSeg()
	b.Vsrc("vrefhi", tapName(segs), "0", netlist.DC(VRefHi))
	b.Vsrc("vreflo", tapName(0), "0", netlist.DC(VRefLo))
	for i := 0; i < segs; i++ {
		b.R(segName(i), tapName(i), tapName(i+1), rseg*v.RhoScale)
	}
}

// ladderWork is the scratch of one ladder class analysis: the tap
// vector, the behavioural ADC and the low-rank solve's workspace.
// Respond takes one from ladderWorks for its whole analysis and puts it
// back at the end; nothing of the response aliases it.
type ladderWork struct {
	taps []float64
	adc  *adc.ADC
	upd  spice.UpdateWork
}

var ladderWorks = sync.Pool{New: func() any { return new(ladderWork) }}

// solveTaps writes the tap voltages into taps (one per tap, 0..2^N) and
// returns the terminal currents. Faulted solves first try the low-rank
// update path, in the workspace uw, against the variation's shared
// nominal factorization; faults it cannot express (topology changes,
// ill-conditioned corrections) fall through to the classic
// build-inject-refactor path below, which is also the path of every
// fault-free solve.
func (l *LadderMacro) solveTaps(ctx context.Context, f *faults.Fault, opt RespondOpts, taps []float64, uw *spice.UpdateWork) (ihi, ilo float64, err error) {
	rank1Fallback := false
	if f != nil && opt.Base != nil {
		if ihi, ilo, ok, err := l.solveTapsUpdated(ctx, f, opt, taps, uw); ok {
			return ihi, ilo, err
		}
		rank1Fallback = true
	}
	io := faults.InjectOptions{NonCat: opt.NonCat}
	sp := opt.span(obs.StageInject, l.Name())
	if rank1Fallback {
		// Counted inside the span of the inject it causes, so trace
		// sinks attribute it.
		opt.Metrics.Add(obs.CtrRank1Fallbacks, 1)
	}
	eng, release, err := checkoutEngine(opt, engineCheckout{
		key: engineKey{macro: l.Name()},
		f:   f, io: io,
		into: func(b *netlist.Builder) { l.buildLadderInto(b, opt.Var) },
	})
	sp.End()
	if err != nil {
		return 0, 0, err
	}
	// Release only after the tap voltages are copied out: the Solution
	// below aliases engine-owned storage.
	defer release()
	sp = opt.span(obs.StageFaultSim, l.Name())
	sol, err := eng.OP(ctx)
	sp.End()
	if err != nil {
		return 0, 0, err
	}
	for k := range taps {
		taps[k] = sol.V(tapName(k))
	}
	return sol.I("vrefhi"), sol.I("vreflo"), nil
}

// solveTapsUpdated is the rank-k fast path of solveTaps: it expresses
// the fault as a conductance delta against the variation's cached
// nominal factorization and solves it with a Sherman–Morrison–Woodbury
// correction — no circuit rebuild, no refactorization. ok=false means
// "not handled here, take the classic path" (and the caller counts the
// fallback); ok=true with a non-nil err carries a genuine failure (only
// cancellation, in practice) with the same semantics as the classic
// path. Results agree with the classic path within the Newton
// convergence contract; the bit-identity story is in DESIGN.md §10.
func (l *LadderMacro) solveTapsUpdated(ctx context.Context, f *faults.Fault, opt RespondOpts, taps []float64, uw *spice.UpdateWork) (ihi, ilo float64, ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, true, err
	}
	sp := opt.span(obs.StageInject, l.Name())
	nf, _, err := opt.Base.orNone().ladderFactor.Do(ctx, opt.Var, func() (*spice.NominalFactor, error) {
		return spice.NewNominalFactor(l.buildLadderCircuit(opt.Var).C, opt.simOptions())
	})
	if err != nil {
		sp.End()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, 0, true, ctxErr
		}
		return 0, 0, false, nil
	}
	plan, err := faults.Plan(nf.Ckt(), *f, procShared, faults.InjectOptions{NonCat: opt.NonCat})
	if err != nil || plan.TopologyChanged {
		// A malformed fault errors identically out of the classic path's
		// Inject; a topology change needs the rebuilt system.
		sp.End()
		return 0, 0, false, nil
	}
	upd, updatable := nf.UpdateFor(plan.Added)
	sp.End()
	if !updatable {
		return 0, 0, false, nil
	}
	sp = opt.span(obs.StageFaultSim, l.Name())
	sol, err := nf.SolveUpdated(upd, uw)
	if err != nil {
		sp.End()
		// Ill-conditioned correction or non-convergence: let the classic
		// path refactor from scratch (reproducing a genuine failure with
		// classic semantics if the system really is unsolvable).
		return 0, 0, false, nil
	}
	opt.Metrics.Add(obs.CtrRank1Solves, 1)
	sp.End()
	for k := range taps {
		taps[k] = sol.V(tapName(k))
	}
	return sol.I("vrefhi"), sol.I("vreflo"), true, nil
}

// nominalTaps returns the fault-free tap voltages under opt's variation,
// through the baseline cache when one is attached — every class analysis
// needs the same reference vector, so the good machine is solved once
// per variation instead of once per class. The cached slice is shared
// read-only, so it is a slice of its own, never a work's; the circuit
// is fully determined by the variation (the ladder has no DfT variant),
// so a hit is bit-for-bit a recompute.
func (l *LadderMacro) nominalTaps(ctx context.Context, opt RespondOpts) ([]float64, error) {
	taps, hit, err := opt.Base.orNone().ladderTaps.Do(ctx, opt.Var, func() ([]float64, error) {
		taps := make([]float64, l.Veh.LadderSegments()+1)
		if _, _, err := l.solveTaps(ctx, nil, opt, taps, nil); err != nil {
			return nil, err
		}
		return taps, nil
	})
	opt.countBaselineHit(hit, l.Name())
	return taps, err
}

// Respond implements Macro. The voltage signature is determined by
// propagating the faulty tap voltages through the high-level ADC model
// (ideal comparators, faulty references) and running the missing-code
// test; the current signature is the deviation of the reference-terminal
// currents. The whole analysis runs in one pooled ladderWork.
func (l *LadderMacro) Respond(ctx context.Context, f *faults.Fault, opt RespondOpts) (*signature.Response, error) {
	w := ladderWorks.Get().(*ladderWork)
	defer ladderWorks.Put(w)
	resp := &signature.Response{Currents: map[string]float64{}}
	w.taps = solver.Grow(w.taps, l.Veh.LadderSegments()+1)
	taps := w.taps
	ihi, ilo, err := l.solveTaps(ctx, f, opt, taps, &w.upd)
	if err != nil {
		if f == nil || spice.IsCancelled(err) {
			return nil, err
		}
		resp.Voltage = signature.VSigMixed
		resp.MissingCode = true
		resp.SimError = err
		return resp, nil
	}
	resp.Currents["iin.vref.hi"] = math.Abs(ihi)
	resp.Currents["iin.vref.lo"] = math.Abs(ilo)

	if opt.CurrentsOnly {
		return resp, nil
	}

	// Nominal taps under the same variation (ratiometric: uniform rho
	// scaling leaves them unchanged, so deviations isolate the fault).
	nomTaps, err := l.nominalTaps(ctx, opt)
	if err != nil {
		return nil, err
	}
	csp := opt.span(obs.StageClassify, l.Name())
	defer csp.End()
	worst := 0.0
	n := l.Veh.Comparators()
	if w.adc == nil || len(w.adc.Taps) != n {
		w.adc = adc.New(n, VRefLo, VRefHi)
	} else {
		w.adc.Reset(VRefLo, VRefHi)
	}
	a := w.adc
	for k := 0; k < n; k++ {
		// Comparator k compares against tap k+... the behavioural
		// model's tap i is the threshold of slice i; our string tap
		// i+0 feeds slice i (taps 1..2^N of the string used as
		// thresholds would offset by half an LSB — immaterial for
		// missing-code detection, we apply deviations).
		dev := taps[k] - nomTaps[k]
		a.Taps[k] += dev
		if d := math.Abs(dev); d > worst {
			worst = d
		}
	}
	resp.OffsetV = worst
	if a.HasMissingCode(VRefLo, VRefHi, l.Veh.TestSamples()) {
		resp.MissingCode = true
		resp.Voltage = signature.VSigOffset
		if worst > 10*l.Veh.LSB() {
			resp.Voltage = signature.VSigStuck
		}
	} else {
		resp.Voltage = signature.VSigNone
	}
	return resp, nil
}

// Layout implements Macro: a serpentine of polysilicon segments with
// metal1 tap stubs rising to the comparator array. The dft flag does not
// change the ladder.
func (l *LadderMacro) Layout(bool) *layout.Cell {
	b := layout.NewBuilder("ladder")
	b.DefaultWidth = 1.2
	const segLen = 6.0
	const rowPitch = 4.0
	segs := l.Veh.LadderSegments()
	rows := segs / LadderRowLen
	for r := 0; r < rows; r++ {
		y := float64(r) * rowPitch
		for s := 0; s < LadderRowLen; s++ {
			i := r*LadderRowLen + s
			// Serpentine: odd rows run right-to-left, so their
			// terminal order is mirrored to keep the electrically
			// continuing tap at the fold side.
			if r%2 == 0 {
				x := float64(s) * segLen
				b.Resistor(segName(i), tapName(i), tapName(i+1), x, y, segLen, 1.2)
			} else {
				x := float64(LadderRowLen-1-s) * segLen
				b.Resistor(segName(i), tapName(i+1), tapName(i), x, y, segLen, 1.2)
			}
		}
		// Vertical poly link to the next row at the fold.
		if r+1 < rows {
			endTap := tapName((r + 1) * LadderRowLen)
			var x float64
			if r%2 == 0 {
				x = float64(LadderRowLen) * segLen
			} else {
				x = 0
			}
			b.VWire(process.Poly, endTap, x, y, y+rowPitch)
		}
	}
	// Tap stubs: metal1 risers from every 4th tap junction (the layout
	// abstraction of the tap lines leaving toward the comparators).
	for k := 0; k <= segs; k += 4 {
		r := k / LadderRowLen
		pos := k % LadderRowLen
		var x float64
		switch {
		case k == segs:
			// The final tap sits at the left end of the last
			// (odd) row.
			r = rows - 1
			x = 0
		case r%2 == 0:
			x = float64(pos) * segLen
		default:
			x = float64(LadderRowLen-pos) * segLen
		}
		y := math.Min(float64(r), float64(rows-1)) * rowPitch
		net := tapName(k)
		b.CutAt(process.Contact, net, x, y)
		b.VWire(process.Metal1, net, x, y, y+2.5)
	}
	b.C.MarkPort(tapName(0), tapName(segs))
	// Every tap drives a comparator, so tap nets are shared too.
	for k := 0; k <= segs; k += 4 {
		b.C.MarkPort(tapName(k))
	}
	return b.C
}
