package netlist

import "math"

// MOSModel is a level-1 (Shichman–Hodges) MOSFET model card with simple
// body effect, channel-length modulation and temperature dependence. The
// defaults mirror a 1 µm CMOS process at 5 V.
type MOSModel struct {
	// PMOS selects the p-channel polarity.
	PMOS bool
	// VT0 is the zero-bias threshold voltage (positive for NMOS,
	// negative for PMOS).
	VT0 float64
	// KP is the transconductance parameter µCox (A/V²).
	KP float64
	// Lambda is the channel-length modulation (1/V).
	Lambda float64
	// Gamma is the body-effect coefficient (√V); Phi the surface
	// potential (V).
	Gamma, Phi float64
	// IOff is the drain-source off-state leakage per unit W/L (A); it
	// keeps IDDQ realistic without a full subthreshold model.
	IOff float64
	// TCV is the threshold temperature coefficient (V/°C, applied as
	// VT0 - TCV*(T-27)); BEX the mobility exponent for KP scaling.
	TCV, BEX float64
}

// NMOS1 returns the default 1 µm NMOS model card.
func NMOS1() MOSModel {
	return MOSModel{
		VT0: 0.75, KP: 60e-6, Lambda: 0.04, Gamma: 0.4, Phi: 0.65,
		IOff: 1e-12, TCV: 2e-3, BEX: -1.5,
	}
}

// PMOS1 returns the default 1 µm PMOS model card.
func PMOS1() MOSModel {
	return MOSModel{
		PMOS: true, VT0: -0.75, KP: 22e-6, Lambda: 0.05, Gamma: 0.5, Phi: 0.65,
		IOff: 1e-12, TCV: -2e-3, BEX: -1.5,
	}
}

// AtTemp returns the model adjusted to temperature tC (°C), relative to
// the nominal 27 °C.
func (m MOSModel) AtTemp(tC float64) MOSModel {
	dt := tC - 27
	m.VT0 -= m.TCV * dt
	m.KP *= math.Pow((tC+273.15)/300.15, m.BEX)
	return m
}

// MOSFET is a four-terminal MOS transistor using MOSModel. Gate
// capacitances are not part of the stamp; the macro builder adds explicit
// linear capacitors (see AddMOS in the builder helpers) so the transient
// engine sees charge storage while the DC stamp stays purely resistive.
type MOSFET struct {
	Label      string
	D, G, S, B NodeID
	Model      MOSModel
	// W and L are the channel width and length in metres.
	W, L float64
}

// Name implements Element.
func (m *MOSFET) Name() string { return m.Label }

// Nodes implements Element. Order: D, G, S, B.
func (m *MOSFET) Nodes() []NodeID { return []NodeID{m.D, m.G, m.S, m.B} }

// Retarget implements Element.
func (m *MOSFET) Retarget(i int, n NodeID) {
	switch i {
	case 0:
		m.D = n
	case 1:
		m.G = n
	case 2:
		m.S = n
	case 3:
		m.B = n
	default:
		panic(badTerminal(m.Label, i))
	}
}

// NumAux implements Element.
func (m *MOSFET) NumAux() int { return 0 }

// mosParams caches the bias-independent quantities of eval so a stamp
// that evaluates the device several times (finite-difference Jacobian)
// computes them once. Every field is produced by exactly the expression
// eval historically used inline, so going through the cache leaves all
// results bit-identical.
type mosParams struct {
	sign     float64 // +1 NMOS frame, -1 PMOS
	vt0      float64 // threshold in the NMOS frame
	phi      float64
	sqrtPhi  float64 // math.Sqrt(Phi)
	gamma    float64
	lambda   float64
	beta     float64 // KP * W / L
	iwol     float64 // IOff * (W / L)
	pmosFlip bool
}

// params derives the evaluation constants from the model card and
// geometry. Called once per Stamp (or per standalone eval).
func (m *MOSFET) params() mosParams {
	mod := m.Model
	p := mosParams{
		sign:    1,
		vt0:     mod.VT0,
		phi:     mod.Phi,
		sqrtPhi: math.Sqrt(mod.Phi),
		gamma:   mod.Gamma,
		lambda:  mod.Lambda,
		beta:    mod.KP * m.W / m.L,
		iwol:    mod.IOff * (m.W / m.L),
	}
	if mod.PMOS {
		p.sign = -1
		p.vt0 = -mod.VT0 // in the NMOS frame the threshold is positive
		p.pmosFlip = true
	}
	return p
}

// thMemo is a one-entry memo for math.Tanh. Within one Stamp the
// gate- and bulk-perturbed finite-difference evaluations keep vds — and
// therefore the tanh argument — unchanged, so the memo collapses those
// transcendental calls. Identical argument, identical value: results
// stay bit-for-bit the same.
type thMemo struct {
	arg, val float64
	ok       bool
}

func (c *thMemo) tanh(x float64) float64 {
	if c.ok && x == c.arg {
		return c.val
	}
	c.arg, c.val, c.ok = x, math.Tanh(x), true
	return c.val
}

// idsP computes only the drain current for one bias point — the quantity
// the finite-difference stamp consumes from every evaluation. It is the
// ids computation of evalP with the small-signal branches removed; every
// expression it does evaluate is written (and ordered) exactly as in
// evalP, so the current is bit-identical.
func (m *MOSFET) idsP(p *mosParams, th *thMemo, vd, vg, vs, vb float64) float64 {
	if p.pmosFlip {
		vd, vg, vs, vb = -vd, -vg, -vs, -vb
	}
	flip := false
	if vd < vs {
		vd, vs = vs, vd
		flip = true
	}
	vgs := vg - vs
	vds := vd - vs
	vbs := vb - vs

	sb := p.phi - vbs
	if sb < 0.05 {
		sb = 0.05
	}
	vth := p.vt0 + p.gamma*(math.Sqrt(sb)-p.sqrtPhi)
	vov := vgs - vth
	leak := p.iwol * th.tanh(vds/0.1)
	ids := leak
	switch {
	case vov <= 0:
		// Cutoff: leakage only.
	case vds < vov:
		cm := 1 + p.lambda*vds
		ids = p.beta*(vov*vds-vds*vds/2)*cm + leak
	default:
		cm := 1 + p.lambda*vds
		ids = p.beta/2*vov*vov*cm + leak
	}
	if flip {
		ids = -ids
	}
	return ids * p.sign
}

// eval computes the drain current and small-signal conductances of the
// intrinsic device for terminal voltages vd, vg, vs, vb (all relative to
// ground), in the NMOS frame. Returns ids (current flowing D->S inside
// the device), gm = ∂I/∂Vgs, gds = ∂I/∂Vds, gmb = ∂I/∂Vbs.
func (m *MOSFET) eval(vd, vg, vs, vb float64) (ids, gm, gds, gmb float64) {
	p := m.params()
	var th thMemo
	return m.evalP(&p, &th, vd, vg, vs, vb)
}

// evalP is eval with the derived constants and tanh memo supplied by the
// caller; the arithmetic (expressions and their order) matches the
// original inline form exactly.
func (m *MOSFET) evalP(p *mosParams, th *thMemo, vd, vg, vs, vb float64) (ids, gm, gds, gmb float64) {
	if p.pmosFlip {
		// Evaluate the PMOS as an NMOS with inverted voltages.
		vd, vg, vs, vb = -vd, -vg, -vs, -vb
	}
	// Source-drain symmetry: operate with vds >= 0.
	flip := false
	if vd < vs {
		vd, vs = vs, vd
		flip = true
	}
	vgs := vg - vs
	vds := vd - vs
	vbs := vb - vs

	// Body effect (clamp the sqrt arguments).
	sb := p.phi - vbs
	if sb < 0.05 {
		sb = 0.05
	}
	vth := p.vt0 + p.gamma*(math.Sqrt(sb)-p.sqrtPhi)
	dvthdvbs := -p.gamma / (2 * math.Sqrt(sb))

	vov := vgs - vth
	// Off-state leakage, present in every region for continuity at the
	// cutoff boundary; tanh rolls it off smoothly through vds = 0.
	t := th.tanh(vds / 0.1)
	leak := p.iwol * t
	switch {
	case vov <= 0:
		// Cutoff: leakage only.
		ids = leak
		gds = p.iwol / 0.1 * (1 - t*t)
		gm = 0
		gmb = 0
	case vds < vov:
		// Linear (triode).
		cm := 1 + p.lambda*vds
		ids = p.beta*(vov*vds-vds*vds/2)*cm + leak
		gm = p.beta * vds * cm
		gds = p.beta*(vov-vds)*cm + p.beta*(vov*vds-vds*vds/2)*p.lambda
		gmb = gm * (-dvthdvbs)
	default:
		// Saturation.
		cm := 1 + p.lambda*vds
		ids = p.beta/2*vov*vov*cm + leak
		gm = p.beta * vov * cm
		gds = p.beta / 2 * vov * vov * p.lambda
		gmb = gm * (-dvthdvbs)
	}
	if flip {
		ids = -ids
		// After flipping, gm/gds/gmb refer to the swapped frame; the
		// caller-side stamp uses the original terminals, so express
		// derivatives versus the original voltages:
		// I(D,S swapped) = -I'(...), handled in Stamp via re-eval.
	}
	ids *= p.sign
	return ids, gm, gds, gmb
}

// Stamp implements Element with a Norton companion linearisation around
// the present iterate. Derivatives are taken numerically from eval, which
// sidesteps the sign bookkeeping of the polarity/source-swap frames and is
// robust for a model this cheap.
func (m *MOSFET) Stamp(ctx *Context, _ int) {
	vd, vg, vs, vb := ctx.XAt(m.D), ctx.XAt(m.G), ctx.XAt(m.S), ctx.XAt(m.B)
	const h = 1e-6
	// One parameter derivation and one tanh memo serve all five
	// evaluations. The gate- and bulk-perturbed points keep vds unchanged,
	// so evaluating them right after the base point lets the memo skip
	// their tanh; the drain/source perturbations shift vds and miss. Each
	// evaluation is a pure function, so reordering them changes nothing.
	p := m.params()
	var th thMemo
	i0 := m.idsP(&p, &th, vd, vg, vs, vb)
	ig1 := m.idsP(&p, &th, vd, vg+h, vs, vb)
	ib1 := m.idsP(&p, &th, vd, vg, vs, vb+h)
	id1 := m.idsP(&p, &th, vd+h, vg, vs, vb)
	is1 := m.idsP(&p, &th, vd, vg, vs+h, vb)
	gdd := (id1 - i0) / h
	gdg := (ig1 - i0) / h
	gds := (is1 - i0) / h
	gdb := (ib1 - i0) / h

	// Current flows D->S through the channel. MNA: I_D = +ids at drain
	// (leaving node into channel), I_S = -ids.
	// Linearised: i = i0 + gdd*(Vd-vd) + gdg*(Vg-vg) + gds*(Vs-vs) + gdb*(Vb-vb).
	ieq := i0 - gdd*vd - gdg*vg - gds*vs - gdb*vb

	dIdx := idx(m.D)
	sIdx := idx(m.S)
	stampRow := func(row int, signv float64) {
		if row < 0 {
			return
		}
		if j := idx(m.D); j >= 0 {
			ctx.AddA(row, j, signv*gdd)
		}
		if j := idx(m.G); j >= 0 {
			ctx.AddA(row, j, signv*gdg)
		}
		if j := idx(m.S); j >= 0 {
			ctx.AddA(row, j, signv*gds)
		}
		if j := idx(m.B); j >= 0 {
			ctx.AddA(row, j, signv*gdb)
		}
		ctx.AddB(row, -signv*ieq)
	}
	stampRow(dIdx, 1)
	stampRow(sIdx, -1)

	// Convergence aid: gmin from drain and source to ground.
	if ctx.Gmin > 0 {
		ctx.StampG(m.D, Ground, ctx.Gmin)
		ctx.StampG(m.S, Ground, ctx.Gmin)
	}
}

// Ids returns the channel current at the given solved node voltages
// (positive flowing D->S), for measurement purposes.
func (m *MOSFET) Ids(vd, vg, vs, vb float64) float64 {
	i, _, _, _ := m.eval(vd, vg, vs, vb)
	return i
}
