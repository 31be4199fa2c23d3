package netlist

// Resistor is a linear two-terminal resistance.
type Resistor struct {
	Label string
	A, B  NodeID
	// R is the resistance in ohms; must be > 0.
	R float64
}

// Name implements Element.
func (r *Resistor) Name() string { return r.Label }

// Nodes implements Element.
func (r *Resistor) Nodes() []NodeID { return []NodeID{r.A, r.B} }

// Retarget implements Element.
func (r *Resistor) Retarget(i int, n NodeID) {
	switch i {
	case 0:
		r.A = n
	case 1:
		r.B = n
	default:
		panic(badTerminal(r.Label, i))
	}
}

// NumAux implements Element.
func (r *Resistor) NumAux() int { return 0 }

// Stamp implements Element.
func (r *Resistor) Stamp(ctx *Context, _ int) {
	ctx.StampG(r.A, r.B, 1/r.R)
}

// StampB implements LinearElement: a resistor is pure conductance, so the
// B-side re-recording has nothing to do.
func (r *Resistor) StampB(*Context, int) {}

// ConductanceStamp implements GStamper: a resistor's stamp is the pure
// conductance 1/R between its terminals in every mode.
func (r *Resistor) ConductanceStamp(StampMode) (NodeID, NodeID, float64, bool) {
	return r.A, r.B, 1 / r.R, true
}

// Capacitor is a linear two-terminal capacitance. In DC it is an open
// circuit; in transient analysis it uses the backward-Euler companion
// model g = C/dt with an equivalent history current.
type Capacitor struct {
	Label string
	A, B  NodeID
	// C is the capacitance in farads.
	C float64
}

// Name implements Element.
func (c *Capacitor) Name() string { return c.Label }

// Nodes implements Element.
func (c *Capacitor) Nodes() []NodeID { return []NodeID{c.A, c.B} }

// Retarget implements Element.
func (c *Capacitor) Retarget(i int, n NodeID) {
	switch i {
	case 0:
		c.A = n
	case 1:
		c.B = n
	default:
		panic(badTerminal(c.Label, i))
	}
}

// NumAux implements Element.
func (c *Capacitor) NumAux() int { return 0 }

// Stamp implements Element.
func (c *Capacitor) Stamp(ctx *Context, _ int) {
	if ctx.Mode == DCOp {
		return
	}
	g := c.C / ctx.Dt
	vPrev := ctx.XPrevAt(c.A) - ctx.XPrevAt(c.B)
	ctx.StampG(c.A, c.B, g)
	// History source: i_eq = g * vPrev flowing B -> A (charging current
	// continues in the established direction).
	ctx.StampI(c.B, c.A, g*vPrev)
}

// StampB implements LinearElement: only the history current source, computed
// exactly as in Stamp, without the conductance writes.
func (c *Capacitor) StampB(ctx *Context, _ int) {
	if ctx.Mode == DCOp {
		return
	}
	g := c.C / ctx.Dt
	vPrev := ctx.XPrevAt(c.A) - ctx.XPrevAt(c.B)
	ctx.StampI(c.B, c.A, g*vPrev)
}

// Waveform is a time-dependent source value.
type Waveform interface {
	// At returns the source value at time t.
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At implements Waveform.
func (d DC) At(float64) float64 { return float64(d) }

// Pulse is a SPICE-style pulse waveform.
type Pulse struct {
	V0, V1                   float64
	Delay, Rise, Fall, Width float64
	Period                   float64 // 0 = single pulse
}

// At implements Waveform.
func (p Pulse) At(t float64) float64 {
	t -= p.Delay
	if t < 0 {
		return p.V0
	}
	if p.Period > 0 {
		for t >= p.Period {
			t -= p.Period
		}
	}
	switch {
	case t < p.Rise:
		if p.Rise == 0 {
			return p.V1
		}
		return p.V0 + (p.V1-p.V0)*t/p.Rise
	case t < p.Rise+p.Width:
		return p.V1
	case t < p.Rise+p.Width+p.Fall:
		if p.Fall == 0 {
			return p.V0
		}
		return p.V1 + (p.V0-p.V1)*(t-p.Rise-p.Width)/p.Fall
	default:
		return p.V0
	}
}

// PWL is a piecewise-linear waveform through (T[i], V[i]) points; constant
// extrapolation outside the range. T must be strictly increasing.
type PWL struct {
	T, V []float64
}

// At implements Waveform.
func (p PWL) At(t float64) float64 {
	if len(p.T) == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	for i := 1; i < len(p.T); i++ {
		if t <= p.T[i] {
			f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
			return p.V[i-1] + f*(p.V[i]-p.V[i-1])
		}
	}
	return p.V[len(p.V)-1]
}

// Triangle is a symmetric triangular waveform sweeping Lo..Hi..Lo with the
// given period, starting at Lo.
type Triangle struct {
	Lo, Hi, Period float64
}

// At implements Waveform.
func (w Triangle) At(t float64) float64 {
	if w.Period <= 0 {
		return w.Lo
	}
	ph := t / w.Period
	ph -= float64(int(ph))
	if ph < 0.5 {
		return w.Lo + (w.Hi-w.Lo)*2*ph
	}
	return w.Hi - (w.Hi-w.Lo)*2*(ph-0.5)
}

// VSource is an ideal independent voltage source from P (+) to N (-). Its
// branch current is an MNA aux unknown, which the engine exposes for the
// supply/input current measurements of the test methodology.
type VSource struct {
	Label string
	P, N  NodeID
	W     Waveform
}

// V returns a DC voltage source.
func V(label string, p, n NodeID, v float64) *VSource {
	return &VSource{Label: label, P: p, N: n, W: DC(v)}
}

// Name implements Element.
func (v *VSource) Name() string { return v.Label }

// Nodes implements Element.
func (v *VSource) Nodes() []NodeID { return []NodeID{v.P, v.N} }

// Retarget implements Element.
func (v *VSource) Retarget(i int, n NodeID) {
	switch i {
	case 0:
		v.P = n
	case 1:
		v.N = n
	default:
		panic(badTerminal(v.Label, i))
	}
}

// NumAux implements Element.
func (v *VSource) NumAux() int { return 1 }

// Stamp implements Element.
func (v *VSource) Stamp(ctx *Context, auxBase int) {
	ctx.StampVS(v.P, v.N, auxBase, v.W.At(ctx.Time)*ctx.SrcScale)
}

// StampB implements LinearElement: the branch-voltage right-hand side of
// StampVS, without the ±1 incidence entries.
func (v *VSource) StampB(ctx *Context, auxBase int) {
	ctx.AddB(auxBase, v.W.At(ctx.Time)*ctx.SrcScale)
}

// ISource is an ideal independent current source. Following the SPICE
// convention, a positive value drives current from P through the source
// to N.
type ISource struct {
	Label string
	P, N  NodeID
	W     Waveform
}

// I returns a DC current source.
func I(label string, p, n NodeID, i float64) *ISource {
	return &ISource{Label: label, P: p, N: n, W: DC(i)}
}

// Name implements Element.
func (s *ISource) Name() string { return s.Label }

// Nodes implements Element.
func (s *ISource) Nodes() []NodeID { return []NodeID{s.P, s.N} }

// Retarget implements Element.
func (s *ISource) Retarget(i int, n NodeID) {
	switch i {
	case 0:
		s.P = n
	case 1:
		s.N = n
	default:
		panic(badTerminal(s.Label, i))
	}
}

// NumAux implements Element.
func (s *ISource) NumAux() int { return 0 }

// Stamp implements Element.
func (s *ISource) Stamp(ctx *Context, _ int) {
	ctx.StampI(s.P, s.N, s.W.At(ctx.Time)*ctx.SrcScale)
}

// StampB implements LinearElement: an ideal current source stamps only the
// right-hand side, so this is Stamp verbatim.
func (s *ISource) StampB(ctx *Context, _ int) {
	ctx.StampI(s.P, s.N, s.W.At(ctx.Time)*ctx.SrcScale)
}
