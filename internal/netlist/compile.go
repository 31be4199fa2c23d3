package netlist

// ModeGated is an optional Element refinement for elements whose Stamp is
// a no-op in some analysis modes (capacitors in DC, where they are open
// circuits). The stamp compiler drops inactive elements from the
// per-mode program so the engine never dispatches them at all.
type ModeGated interface {
	// InactiveIn reports that Stamp writes nothing in the given mode.
	InactiveIn(mode StampMode) bool
}

// InactiveIn implements ModeGated: a capacitor stamps nothing at DC.
func (c *Capacitor) InactiveIn(mode StampMode) bool { return mode == DCOp }

// StampItem is one element occurrence in a compiled stamp program.
type StampItem struct {
	El Element
	// Linear is El's LinearElement view, nil for a nonlinear element,
	// resolved at compile time so the engine's B-side re-recording loop
	// avoids a per-solve type assertion. A linear stamp is independent of
	// the present iterate X, so within one Newton solve — where time,
	// timestep, source scale and the previous-step state are all fixed —
	// it is constant and can be recorded once and replayed per iteration.
	Linear LinearElement
	// AuxBase is the element's first MNA auxiliary index (as assigned by
	// the engine), passed through to Stamp.
	AuxBase int
}

// StampSeg is a maximal run of consecutive same-kind items. Segments let
// the engine replay recorded linear ops and dispatch nonlinear elements
// in the exact element order of the original netlist, which keeps the
// floating-point accumulation order — and therefore every simulation
// result — bit-identical to naive per-element stamping.
type StampSeg struct {
	Linear   bool
	From, To int // index range into Items
}

// StampProgram is the compiled per-(circuit, stamp-mode) form of the
// element list: a flat item slice partitioned into linear/nonlinear runs,
// with mode-inactive elements removed. The MNA engine assembles each
// Newton iteration by walking Segs instead of re-dispatching every
// device through the Element interface.
type StampProgram struct {
	Mode  StampMode
	Items []StampItem
	Segs  []StampSeg
}

// CompileStamps compiles the circuit's element list for one stamp mode.
// auxBase[i] is the first auxiliary-unknown index of c.Elems[i]. Elements
// appended to the circuit after compilation are not part of the program
// (the same construction-time constraint the engine already places on
// node and aux numbering); Retarget-ed terminals are picked up live,
// because stamps read their element's current node fields.
func CompileStamps(c *Circuit, mode StampMode, auxBase []int) *StampProgram {
	p := &StampProgram{Mode: mode}
	for i, el := range c.Elems {
		if g, ok := el.(ModeGated); ok && g.InactiveIn(mode) {
			continue
		}
		lin, _ := el.(LinearElement)
		it := StampItem{El: el, Linear: lin, AuxBase: auxBase[i]}
		if n := len(p.Segs); n == 0 || p.Segs[n-1].Linear != (lin != nil) {
			p.Segs = append(p.Segs, StampSeg{Linear: lin != nil, From: len(p.Items)})
		}
		p.Items = append(p.Items, it)
		p.Segs[len(p.Segs)-1].To = len(p.Items)
	}
	return p
}
