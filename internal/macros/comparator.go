package macros

import (
	"context"
	"fmt"
	"math"

	"repro/internal/adc"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/signature"
	"repro/internal/spice"
)

// ComparatorMacro is the clocked comparator + flipflop slice, the macro
// the paper uses to walk through the whole defect-oriented test path. The
// fault simulation co-instantiates the bias generator and the clock
// generator's output buffers so faults on the shared bias/clock
// distribution lines behave realistically (the paper's 72.2 % cross-macro
// faults).
type ComparatorMacro struct {
	// Veh is the vehicle spec: the instance count, the propagation
	// model's slice count and the offset-detection budget derive from it.
	Veh Vehicle
	// VRef is the reference tap this slice compares against.
	VRef float64
}

// NewComparator returns the comparator macro of the given vehicle with
// its mid-range reference.
func NewComparator(veh Vehicle) *ComparatorMacro {
	return NewComparatorWithRef(veh, (VRefLo+VRefHi)/2)
}

// NewComparatorWithRef returns a comparator slice of the given vehicle
// comparing against the given reference tap voltage.
func NewComparatorWithRef(veh Vehicle, vref float64) *ComparatorMacro {
	return &ComparatorMacro{Veh: veh, VRef: vref}
}

// nominalOffset returns the comparator's design offset (charge injection
// and kickback are not perfectly balanced, exactly as in silicon). Fault
// signatures are classified on the offset *deviation* from this value —
// the systematic part is shared by all of the vehicle's slices and
// therefore part of the good signature. The bisection runs once per
// (vref, DfT) and baseline cache, shared by every comparator testbench
// that caches through it (the bias generator's included); the caller's
// pool and baseline cache are threaded through so the bisection's
// engines are rebind-served like any other fault-free run.
func (m *ComparatorMacro) nominalOffset(ctx context.Context, dft bool, pool *EnginePool, base *Baselines) (float64, error) {
	off, _, err := base.orNone().offsets.Do(ctx, offsetKey{vref: m.VRef, dft: dft}, func() (float64, error) {
		// ok is false only alongside an error (an aborted bisection).
		off, _, err := m.bisectOffset(ctx, nil, RespondOpts{
			Var: Nominal(), DfT: dft, Pool: pool, Base: base,
		}, 0, nil)
		return off, err
	})
	return off, err
}

// Name implements Macro.
func (m *ComparatorMacro) Name() string { return "comparator" }

// Count implements Macro.
func (m *ComparatorMacro) Count() int { return m.Veh.Comparators() }

// Layout implements Macro.
func (m *ComparatorMacro) Layout(dft bool) *layout.Cell { return comparatorLayout(dft) }

// nmosModel and pmosModel apply a variation to the model cards.
func nmosModel(v Variation) netlist.MOSModel {
	mod := netlist.NMOS1().AtTemp(v.TempC)
	mod.VT0 += v.DVTN
	mod.KP *= v.KPScale
	return mod
}

func pmosModel(v Variation) netlist.MOSModel {
	mod := netlist.PMOS1().AtTemp(v.TempC)
	mod.VT0 -= v.DVTP // more negative threshold for positive shift
	mod.KP *= v.KPScale
	return mod
}

// The simulation runs two full conversion cycles. The t=0 operating point
// leaves the flipflop metastable (mid-level, drawing crowbar current in
// the buffers); the first latch phase writes a valid state, so all
// settled-current measurements are taken in the SECOND cycle, exactly as
// a tester measures a converter that has been clocking.
var (
	sampWin  = [2]float64{350e-9, 390e-9}
	ampWin   = [2]float64{450e-9, 490e-9}
	latchWin = [2]float64{550e-9, 585e-9}
	tEnd     = 588e-9
	// The decision is read at the end of the FIRST latch phase: there the
	// flipflop enters the phase from its symmetric (metastable) reset, so
	// the read carries no hysteresis from a previous decision. The second
	// cycle, whose flipflop then holds a valid state, provides the
	// settled current-measurement windows above.
	tRead = 285e-9
)

// tranSchedule resolves the latch-regeneration onsets (clk3 rises at
// 200–205 ns and 500–505 ns) with fine steps; backward Euler needs
// h·λ ≲ 1 there to track the regenerative growth instead of damping it
// onto the metastable saddle.
var tranSchedule = []spice.TranSeg{
	{Until: 203e-9, Dt: TStep},
	{Until: 222e-9, Dt: 0.1e-9},
	{Until: 503e-9, Dt: TStep},
	{Until: 522e-9, Dt: 0.1e-9},
	{Until: tEnd, Dt: TStep},
}

// phaseNames orders the measurement windows.
var phaseNames = []struct {
	name string
	win  [2]float64
}{
	{"samp", sampWin},
	{"amp", ampWin},
	{"latch", latchWin},
}

// addClockBuffers builds the clock generator's output stage: a two-inverter
// buffer chain per phase, powered from the digital supply node vddd. The
// chain input nodes are phi1..phi3.
func addClockBuffers(b *netlist.Builder, v Variation) {
	nm, pm := nmosModel(v), pmosModel(v)
	for i := 1; i <= 3; i++ {
		phi := fmt.Sprintf("phi%d", i)
		mid := fmt.Sprintf("clkmid%d", i)
		clk := fmt.Sprintf("clk%d", i)
		b.MOS(fmt.Sprintf("cg.mp%da", i), mid, phi, "vddd", "vddd", 8, 1, pm)
		b.MOS(fmt.Sprintf("cg.mn%da", i), mid, phi, "0", "0", 4, 1, nm)
		b.MOS(fmt.Sprintf("cg.mp%db", i), clk, mid, "vddd", "vddd", 32, 1, pm)
		b.MOS(fmt.Sprintf("cg.mn%db", i), clk, mid, "0", "0", 16, 1, nm)
	}
}

// addBiasGenerator builds the four bias legs (vbn1, vbn2, vbp1, vbp2)
// powered from vddb. vbn1/vbn2 (and vbp1/vbp2) carry deliberately similar
// voltages — the paper's hard-to-detect adjacent bias lines.
func addBiasGenerator(b *netlist.Builder, v Variation) {
	nm, pm := nmosModel(v), pmosModel(v)
	r := 53e3 * v.RhoScale
	b.R("bg.rn1", "vddb", "vbn1", r)
	b.MOS("bg.mn1", "vbn1", "vbn1", "0", "0", 20, 1, nm)
	b.R("bg.rn2", "vddb", "vbn2", r)
	b.MOS("bg.mn2", "vbn2", "vbn2", "0", "0", 18, 1, nm)
	b.R("bg.rp1", "vbp1", "0", r)
	b.MOS("bg.mp1", "vbp1", "vbp1", "vddb", "vddb", 55, 1, pm)
	b.R("bg.rp2", "vbp2", "0", r)
	b.MOS("bg.mp2", "vbp2", "vbp2", "vddb", "vddb", 49, 1, pm)
}

// buildComparatorCircuit constructs the complete co-simulation testbench:
// comparator slice (supply vdda), bias generator (vddb), clock buffer
// stage (vddd), ideal phase inputs and the vin/vref sources.
func (m *ComparatorMacro) buildComparatorCircuit(vin float64, opt RespondOpts) *netlist.Builder {
	b := netlist.NewBuilder()
	m.buildComparatorInto(b, vin, opt)
	return b
}

// buildComparatorInto runs the testbench construction against the given
// builder — a plain builder for a simulation circuit, a recording one
// (netlist.NewRecorder) for the rebind binding. One construction path
// serves both, so a recorded binding cannot drift from a built circuit.
func (m *ComparatorMacro) buildComparatorInto(b *netlist.Builder, vin float64, opt RespondOpts) {
	v := opt.Var
	vdd := VDD * v.VddScale

	// Supplies: separate sources so each current is observable.
	b.Vsrc("vdda", "vdda", "0", netlist.DC(vdd))
	b.Vsrc("vddb", "vddb", "0", netlist.DC(vdd))
	b.Vsrc("vddd", "vddd", "0", netlist.DC(vdd))

	// Inputs.
	b.Vsrc("vvin", "vin", "0", netlist.DC(vin))
	b.Vsrc("vvref", "vref", "0", netlist.DC(m.VRef))

	// Phase inputs (ideal, at the circuit edge), 5 ns edges, two full
	// sample/amplify/latch cycles.
	ns := 1e-9
	b.Vsrc("vphi1", "phi1", "0", netlist.PWL{
		T: []float64{0, 90 * ns, 95 * ns, 300 * ns, 305 * ns, 390 * ns, 395 * ns, 600 * ns},
		V: []float64{vdd, vdd, 0, 0, vdd, vdd, 0, 0},
	})
	b.Vsrc("vphi2", "phi2", "0", netlist.PWL{
		T: []float64{0, 100 * ns, 105 * ns, 190 * ns, 195 * ns, 400 * ns, 405 * ns, 490 * ns, 495 * ns, 600 * ns},
		V: []float64{0, 0, vdd, vdd, 0, 0, vdd, vdd, 0, 0},
	})
	b.Vsrc("vphi3", "phi3", "0", netlist.PWL{
		T: []float64{0, 200 * ns, 205 * ns, 290 * ns, 295 * ns, 500 * ns, 505 * ns, 590 * ns, 595 * ns, 600 * ns},
		V: []float64{0, 0, vdd, vdd, 0, 0, vdd, vdd, 0, 0},
	})

	addClockBuffers(b, v)
	addBiasGenerator(b, v)

	nm, pm := nmosModel(v), pmosModel(v)

	// --- Comparator slice (supply vdda) ---
	// Sampling switches and capacitors.
	b.MOS("msw1", "inp", "clk1", "vin", "0", 8, 1, nm)
	b.MOS("msw2", "inn", "clk1", "vref", "0", 8, 1, nm)
	b.Cap("cs1", "inp", "0", 0.5e-12)
	b.Cap("cs2", "inn", "0", 0.5e-12)
	// Balanced class-A differential pair with current-source loads.
	b.MOS("m1", "o1", "inp", "tail", "0", 40, 1, nm)
	b.MOS("m2", "o2", "inn", "tail", "0", 40, 1, nm)
	// The tail and load currents are split over both bias lines of each
	// polarity (the second line trims the first), so every bias line
	// carries real current into every slice — which is what makes the
	// DfT-2 line re-ordering effective: post-DfT shorts land between
	// n- and p-type lines and disturb every one of the vehicle's 2^N
	// slices measurably.
	b.MOS("m5", "tail", "vbn1", "0", "0", 16, 1, nm)
	b.MOS("m5b", "tail", "vbn2", "0", "0", 4, 1, nm)
	b.MOS("m3", "o1", "vbp1", "vdda", "vdda", 26, 1, pm)
	b.MOS("m4", "o2", "vbp1", "vdda", "vdda", 26, 1, pm)
	b.MOS("m3b", "o1", "vbp2", "vdda", "vdda", 3, 1, pm)
	b.MOS("m4b", "o2", "vbp2", "vdda", "vdda", 3, 1, pm)
	// Diode-connected clamps define the output common mode (the
	// class-A current sources alone would drift into triode).
	b.MOS("m3d", "o1", "o1", "vdda", "vdda", 4, 1, pm)
	b.MOS("m4d", "o2", "o2", "vdda", "vdda", 4, 1, pm)
	// Regenerative latch enabled by clk3.
	b.MOS("m6", "o1", "o2", "ltail", "0", 20, 1, nm)
	b.MOS("m7", "o2", "o1", "ltail", "0", 20, 1, nm)
	b.MOS("m8", "ltail", "clk3", "0", "0", 30, 1, nm)
	// Flipflop: transfer gates + weak cross-coupled inverters.
	b.MOS("mt1", "q", "clk3", "o1", "0", 4, 1, nm)
	b.MOS("mt2", "qb", "clk3", "o2", "0", 4, 1, nm)
	b.MOS("mfp1", "qb", "q", "vdda", "vdda", 4, 2, pm)
	b.MOS("mfn1", "qb", "q", "0", "0", 2, 2, nm)
	b.MOS("mfp2", "q", "qb", "vdda", "vdda", 4, 2, pm)
	b.MOS("mfn2", "q", "qb", "0", "0", 2, 2, nm)
	// Output buffer: out = NOT q (out is high when vin > vref).
	b.MOS("mop", "out", "q", "vdda", "vdda", 8, 1, pm)
	b.MOS("mon", "out", "q", "0", "0", 4, 1, nm)
	// Flipflop leakage path, active during sampling (clk1 high). The
	// DfT-1 redesign eliminates it.
	if !opt.DfT && v.FFLeakA > 1e-9 {
		rleak := (vdd - 0.1) / v.FFLeakA
		b.MOS("mleak", "lk", "clk1", "0", "0", 20, 1, nm)
		b.R("rleak", "vdda", "lk", rleak)
	}
}

// cmpSession caches the recorded base binding across the runs of one
// comparator analysis variant: the lo/hi extremes and every bisection
// step share (Var, DfT, vref) — only the input level and the fault
// conductances move between them, and those are rebound per checkout.
type cmpSession struct {
	bind *netlist.Binding
}

// binding returns the session's base binding, fetching it from the
// pool's per-key cache (recording one when the cache misses or holds
// another variation's values). The input-source slot is recorded at the
// session's reference level (vinLow); checkouts retune the actual input
// after the rebind (B-side only).
func (s *cmpSession) binding(m *ComparatorMacro, opt RespondOpts, key engineKey) *netlist.Binding {
	if s.bind == nil {
		s.bind = opt.Pool.baseBinding(key, opt.Var, func(bind *netlist.Binding) {
			m.buildComparatorInto(netlist.NewRecorder(bind), vinLow, opt)
		})
	}
	return s.bind
}

// tranRun holds the distilled observations of one transient.
type tranRun struct {
	decision int // 0, 1, or -1 (invalid level)
	outV     float64
	// currents per phase: index by phaseNames order.
	ivdd, ibias, iddq [3]float64
	iinVin, iinVref   float64
	clockDeviant      bool
	failed            bool
}

// runOnce simulates one full three-phase conversion at the given input.
// Runs go through the engine pool when one is attached: the testbench
// topology is identical for every run of one (vref, DfT, leak, fault)
// key, so a pooled engine is revalued in place — die variation values,
// fault conductances and the input level rebound onto the compiled
// structure, bit-identical to building afresh. Topology-changing faults
// build fresh and bypass the pool.
func (m *ComparatorMacro) runOnce(ctx context.Context, vin float64, f *faults.Fault, opt RespondOpts, gos faults.GOSVariant, ses *cmpSession) (*tranRun, error) {
	if ses == nil {
		ses = &cmpSession{}
	}
	sp := opt.span(obs.StageInject, m.Name())
	io := faults.InjectOptions{NonCat: opt.NonCat, GOS: gos}
	key := engineKey{
		macro: m.Name(), vref: m.VRef, dft: opt.DfT,
		leak:  !opt.DfT && opt.Var.FFLeakA > 1e-9,
		fault: faultKey(f, io),
	}
	eng, release, err := checkoutEngine(opt, engineCheckout{
		key: key,
		f:   f, io: io,
		baseBinding: func() *netlist.Binding { return ses.binding(m, opt, key) },
		build:       func() *netlist.Builder { return m.buildComparatorCircuit(vin, opt) },
	})
	if err != nil {
		sp.End()
		return nil, err
	}
	if release != nil {
		// Check back in only after the run's measurements are extracted:
		// the Tran below aliases engine-owned snapshot storage.
		defer release()
	}
	// A rebound engine carries the session's reference input; the actual
	// level is retuned per run (B-side only — on a fresh build this
	// re-assigns the value it was built with, bit-identically).
	if err := eng.RetuneVSource("vvin", netlist.DC(vin)); err != nil {
		sp.End()
		return nil, err
	}
	sp.End()
	sp = opt.span(obs.StageFaultSim, m.Name())
	tr, err := eng.TransientSchedule(ctx, tranSchedule)
	sp.End()
	if err != nil {
		if spice.IsCancelled(err) {
			return nil, err
		}
		return &tranRun{failed: true}, nil
	}
	run := &tranRun{}
	iA := tr.I("vdda")
	iB := tr.I("vddb")
	iD := tr.I("vddd")
	for pi, ph := range phaseNames {
		run.ivdd[pi] = tr.MeanBetween(iA, ph.win[0], ph.win[1])
		run.ibias[pi] = tr.MeanBetween(iB, ph.win[0], ph.win[1])
		run.iddq[pi] = tr.MeanBetween(iD, ph.win[0], ph.win[1])
	}
	// Input-terminal currents: worst settled magnitude across phases.
	iVin := tr.I("vvin")
	iVref := tr.I("vvref")
	for _, ph := range phaseNames {
		if a := math.Abs(tr.MeanBetween(iVin, ph.win[0], ph.win[1])); a > run.iinVin {
			run.iinVin = a
		}
		if a := math.Abs(tr.MeanBetween(iVref, ph.win[0], ph.win[1])); a > run.iinVref {
			run.iinVref = a
		}
	}
	// Decision at the end of the latch phase.
	sol := tr.AtTime(tRead)
	run.outV = sol.V("out")
	vdd := VDD * opt.Var.VddScale
	switch {
	case run.outV > 0.8*vdd:
		run.decision = 1
	case run.outV < 0.2*vdd:
		run.decision = 0
	default:
		run.decision = -1
	}
	// Clock-value signature: each clock's settled level during its own
	// high phase and during another phase must match the rails.
	clkHigh := [3][2]float64{sampWin, ampWin, latchWin}
	clkLowProbe := [3][2]float64{ampWin, latchWin, sampWin}
	for i := 0; i < 3; i++ {
		w := tr.V(fmt.Sprintf("clk%d", i+1))
		hi := tr.MeanBetween(w, clkHigh[i][0], clkHigh[i][1])
		lo := tr.MeanBetween(w, clkLowProbe[i][0], clkLowProbe[i][1])
		if math.Abs(hi-vdd) > 0.25 || math.Abs(lo) > 0.25 {
			run.clockDeviant = true
		}
	}
	return run, nil
}

// extreme input levels for the current test ("an input voltage higher than
// the highest reference voltage and lower than the lowest").
const (
	vinLow  = VRefLo - 0.5
	vinHigh = VRefHi + 0.5
)

// Respond implements Macro.
func (m *ComparatorMacro) Respond(ctx context.Context, f *faults.Fault, opt RespondOpts) (*signature.Response, error) {
	if f != nil && f.Kind == faults.GOSPinhole {
		nom, err := m.nominalResponse(ctx, opt)
		if err != nil {
			return nil, err
		}
		return gosWorstCase(nom, func(v faults.GOSVariant) (*signature.Response, error) {
			return m.respondVariant(ctx, f, opt, v)
		})
	}
	return m.respondVariant(ctx, f, opt, faults.GOSToSource)
}

// nominalResponse returns the fault-free response under opt — the
// reference against which the gate-oxide-short worst case is ranked —
// through the baseline cache when one is attached. Only completed,
// error-free responses are stored, and consumers treat the shared
// response as read-only.
func (m *ComparatorMacro) nominalResponse(ctx context.Context, opt RespondOpts) (*signature.Response, error) {
	key := cmpNomKey{vref: m.VRef, dft: opt.DfT, currentsOnly: opt.CurrentsOnly, v: opt.Var}
	r, hit, err := opt.Base.orNone().cmpNom.Do(ctx, key, func() (*signature.Response, error) {
		return m.Respond(ctx, nil, opt)
	})
	opt.countBaselineHit(hit, m.Name())
	return r, err
}

func (m *ComparatorMacro) respondVariant(ctx context.Context, f *faults.Fault, opt RespondOpts, gos faults.GOSVariant) (*signature.Response, error) {
	ses := &cmpSession{}
	lo, err := m.runOnce(ctx, vinLow, f, opt, gos, ses)
	if err != nil {
		return nil, err
	}
	hi, err := m.runOnce(ctx, vinHigh, f, opt, gos, ses)
	if err != nil {
		return nil, err
	}
	resp := &signature.Response{Currents: map[string]float64{}}
	if lo.failed || hi.failed {
		resp.Voltage = signature.VSigMixed
		resp.SimError = fmt.Errorf("comparator: transient did not converge")
		return resp, nil
	}
	for pi, ph := range phaseNames {
		resp.Currents["slice.ivdd."+ph.name+".lo"] = lo.ivdd[pi]
		resp.Currents["slice.ivdd."+ph.name+".hi"] = hi.ivdd[pi]
		resp.Currents["bias.ivdd."+ph.name+".lo"] = lo.ibias[pi]
		resp.Currents["bias.ivdd."+ph.name+".hi"] = hi.ibias[pi]
		resp.Currents["iddq."+ph.name+".lo"] = lo.iddq[pi]
		resp.Currents["iddq."+ph.name+".hi"] = hi.iddq[pi]
	}
	resp.Currents["iin.vin.lo"] = lo.iinVin
	resp.Currents["iin.vin.hi"] = hi.iinVin
	resp.Currents["iin.vref.lo"] = lo.iinVref
	resp.Currents["iin.vref.hi"] = hi.iinVref

	clockDeviant := lo.clockDeviant || hi.clockDeviant
	if opt.CurrentsOnly {
		return resp, nil
	}

	csp := opt.span(obs.StageClassify, m.Name())
	switch {
	case lo.decision == -1 || hi.decision == -1:
		resp.Voltage = signature.VSigMixed
	case lo.decision == hi.decision:
		resp.Voltage = signature.VSigStuck
		resp.StuckVal = lo.decision
	case lo.decision == 1 && hi.decision == 0:
		// Inverted: erratic codes at the ADC edge.
		resp.Voltage = signature.VSigMixed
	default:
		// Proper polarity: locate the trip point by bisection and
		// compare to the design's systematic offset.
		off, ok, err := m.bisectOffset(ctx, f, opt, gos, ses)
		if err != nil {
			csp.End()
			return nil, err
		}
		switch {
		case !ok:
			resp.Voltage = signature.VSigMixed
		default:
			nomOff, err := m.nominalOffset(ctx, opt.DfT, opt.Pool, opt.Base)
			if err != nil {
				csp.End()
				return nil, err
			}
			resp.OffsetV = off - nomOff
			switch {
			case math.Abs(resp.OffsetV) > m.Veh.OffsetLimit():
				resp.Voltage = signature.VSigOffset
			case clockDeviant:
				resp.Voltage = signature.VSigClock
			default:
				resp.Voltage = signature.VSigNone
			}
		}
	}
	csp.End()
	if resp.Voltage == signature.VSigStuck && clockDeviant {
		// Keep the stronger stuck classification; clock deviation is
		// still reflected in the IDDQ measurements.
		_ = clockDeviant
	}
	resp.MissingCode = propagateSlice(m.Veh, resp)
	return resp, nil
}

// propagateSlice performs the sensitisation/propagation step for a
// comparator-slice signature: plug the faulty slice (or, for common-mode
// bias shifts, all of the vehicle's slices) into the high-level ADC
// model and run the circuit-edge missing-code test.
func propagateSlice(veh Vehicle, resp *signature.Response) bool {
	n := veh.Comparators()
	a := adc.New(n, VRefLo, VRefHi)
	mid := n / 2
	switch resp.Voltage {
	case signature.VSigStuck:
		a.Comps[mid].Stuck = resp.StuckVal
	case signature.VSigMixed:
		a.Comps[mid].Erratic = true
	case signature.VSigOffset:
		if resp.CommonMode {
			for i := range a.Comps {
				a.Comps[i].Offset = resp.OffsetV
			}
		} else {
			a.Comps[mid].Offset = resp.OffsetV
		}
	default:
		return false
	}
	return a.MissingCodeTest(VRefLo, VRefHi, veh.TestSamples()).HasMissing()
}

// bisectOffset locates the comparator trip point (input-referred offset
// relative to VRef). Assumes decision(vinLow)=0 and decision(vinHigh)=1.
// The error is non-nil only when the bisection was aborted (cancellation
// or an injection failure), so a half-finished bisection is never
// classified as a signature.
func (m *ComparatorMacro) bisectOffset(ctx context.Context, f *faults.Fault, opt RespondOpts, gos faults.GOSVariant, ses *cmpSession) (float64, bool, error) {
	if ses == nil {
		ses = &cmpSession{}
	}
	lo, hi := vinLow, vinHigh
	for i := 0; i < 11; i++ {
		mid := (lo + hi) / 2
		run, err := m.runOnce(ctx, mid, f, opt, gos, ses)
		if err != nil {
			return 0, false, err
		}
		if run.failed {
			// The extremes simulated fine, so a Newton breakdown at
			// mid means the latch is balanced on the metastable
			// saddle: mid is the trip point.
			return mid - m.VRef, true, nil
		}
		switch run.decision {
		case 1:
			hi = mid
		case 0:
			lo = mid
		default:
			// A mid-level output means the latch went metastable:
			// we are within a hair of the trip point.
			return mid - m.VRef, true, nil
		}
	}
	return (lo+hi)/2 - m.VRef, true, nil
}
