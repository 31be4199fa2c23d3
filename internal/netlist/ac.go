package netlist

// ACContext is the stamping target for the small-signal (AC) analysis:
// the circuit is linearised around a DC operating point and solved in the
// frequency domain.
type ACContext struct {
	// Omega is the angular frequency (rad/s).
	Omega float64
	// Source is the name of the element acting as the AC excitation
	// (unit magnitude); all other independent sources are quiesced.
	Source string
	// XDense is the DC operating point (the linearisation point for
	// nonlinear devices), node n at index n-1.
	XDense []float64
	// ADense/BDense are the dense row-major N×N complex matrix and the
	// length-N right-hand side that AddA/AddB accumulate into.
	ADense, BDense []complex128
	N              int
}

// XAt returns the operating-point voltage at a node.
func (ctx *ACContext) XAt(n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return ctx.XDense[int(n)-1]
}

// AddA accumulates v into matrix entry (i, j).
func (ctx *ACContext) AddA(i, j int, v complex128) { ctx.ADense[i*ctx.N+j] += v }

// AddB accumulates v into right-hand-side row i.
func (ctx *ACContext) AddB(i int, v complex128) { ctx.BDense[i] += v }

// StampACG stamps a complex admittance between two nodes.
func (ctx *ACContext) StampACG(a, b NodeID, y complex128) {
	ia, ib := idx(a), idx(b)
	if ia >= 0 {
		ctx.AddA(ia, ia, y)
	}
	if ib >= 0 {
		ctx.AddA(ib, ib, y)
	}
	if ia >= 0 && ib >= 0 {
		ctx.AddA(ia, ib, -y)
		ctx.AddA(ib, ia, -y)
	}
}

// ACStamper is implemented by every element that participates in the AC
// analysis. The engine requires it of all elements.
type ACStamper interface {
	// StampAC writes the small-signal contribution at the given
	// operating point into ctx.
	StampAC(ctx *ACContext, auxBase int)
}

// StampAC implements ACStamper.
func (r *Resistor) StampAC(ctx *ACContext, _ int) {
	ctx.StampACG(r.A, r.B, complex(1/r.R, 0))
}

// StampAC implements ACStamper.
func (c *Capacitor) StampAC(ctx *ACContext, _ int) {
	ctx.StampACG(c.A, c.B, complex(0, ctx.Omega*c.C))
}

// StampAC implements ACStamper: the designated AC source has unit
// magnitude; every other voltage source is an AC short (0 V).
func (v *VSource) StampAC(ctx *ACContext, auxBase int) {
	ia, ib := idx(v.P), idx(v.N)
	if ia >= 0 {
		ctx.AddA(ia, auxBase, 1)
		ctx.AddA(auxBase, ia, 1)
	}
	if ib >= 0 {
		ctx.AddA(ib, auxBase, -1)
		ctx.AddA(auxBase, ib, -1)
	}
	if v.Label == ctx.Source {
		ctx.AddB(auxBase, 1)
	}
}

// StampAC implements ACStamper: independent current sources are AC opens
// unless designated as the excitation.
func (s *ISource) StampAC(ctx *ACContext, _ int) {
	if s.Label != ctx.Source {
		return
	}
	if ia := idx(s.P); ia >= 0 {
		ctx.AddB(ia, -1)
	}
	if ib := idx(s.N); ib >= 0 {
		ctx.AddB(ib, 1)
	}
}

// StampAC implements ACStamper: the MOSFET is linearised at the DC
// operating point with numerically evaluated conductances (gm, gds, gmb),
// matching the large-signal Stamp's linearisation.
func (m *MOSFET) StampAC(ctx *ACContext, _ int) {
	vd, vg, vs, vb := ctx.XAt(m.D), ctx.XAt(m.G), ctx.XAt(m.S), ctx.XAt(m.B)
	const h = 1e-6
	i0, _, _, _ := m.eval(vd, vg, vs, vb)
	id1, _, _, _ := m.eval(vd+h, vg, vs, vb)
	ig1, _, _, _ := m.eval(vd, vg+h, vs, vb)
	is1, _, _, _ := m.eval(vd, vg, vs+h, vb)
	ib1, _, _, _ := m.eval(vd, vg, vs, vb+h)
	gdd := (id1 - i0) / h
	gdg := (ig1 - i0) / h
	gds := (is1 - i0) / h
	gdb := (ib1 - i0) / h
	stampRow := func(row int, sign float64) {
		if row < 0 {
			return
		}
		if j := idx(m.D); j >= 0 {
			ctx.AddA(row, j, complex(sign*gdd, 0))
		}
		if j := idx(m.G); j >= 0 {
			ctx.AddA(row, j, complex(sign*gdg, 0))
		}
		if j := idx(m.S); j >= 0 {
			ctx.AddA(row, j, complex(sign*gds, 0))
		}
		if j := idx(m.B); j >= 0 {
			ctx.AddA(row, j, complex(sign*gdb, 0))
		}
	}
	stampRow(idx(m.D), 1)
	stampRow(idx(m.S), -1)
}
