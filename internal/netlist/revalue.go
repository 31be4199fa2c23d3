package netlist

import (
	"fmt"
	"math"
)

// This file is the value half of the compile-once/revalue-many split. A
// circuit's *topology* (nodes, element kinds, terminal wiring, aux-unknown
// layout) fixes every compiled artifact downstream — stamp programs,
// structural sparsity patterns, symbolic eliminations. Its *values*
// (resistances, capacitances, MOS model cards, source waveforms) are what
// a die Variation actually moves. Revalue copies the values of a fresh
// build into an already-compiled circuit of the same topology, so its
// engine is revalued in place instead of rebuilt.
//
// Values are scoped by which side of the MNA system they reach:
//
//   - A-side values (resistance, capacitance, MOS model) change matrix
//     entries; a consumer caching recorded A-side stamps must drop that
//     recording when one changes.
//   - B-side values (source waveforms) only reach the right-hand side —
//     a source's A-side stamps are value-independent ±1 incidence
//     entries — so copying them leaves A-side recordings valid.

// Revalue copies the element values of src — a fresh build of c's
// topology — into c in place, and reports whether any A-side value
// changed (bitwise for R and C, field-wise for the model card). Source
// waveforms are always taken over and never count as a change: they may
// hold slices (PWL), and they reach only the right-hand side.
//
// The two circuits must have the same node and element counts, and,
// walked in lockstep, each pair of elements must match in kind, label
// and terminals, MOSFETs also in W and L. Any mismatch is an error; c
// may then be partially revalued, so the caller must discard it (the
// macro layer falls back to a fresh build).
//
// Revalue rewrites values only: it never adds or removes elements and
// never moves terminals, so node numbering, aux layout, compiled stamp
// programs and structural sparsity patterns all stay valid.
func (c *Circuit) Revalue(src *Circuit) (aChanged bool, err error) {
	if len(src.Elems) != len(c.Elems) || src.NumNodes() != c.NumNodes() {
		return false, fmt.Errorf("netlist: revalue: %d elements on %d nodes from %d elements on %d nodes",
			len(c.Elems), c.NumNodes(), len(src.Elems), src.NumNodes())
	}
	for i, el := range c.Elems {
		ch, err := revalueElem(el, src.Elems[i])
		if err != nil {
			return aChanged, err
		}
		aChanged = aChanged || ch
	}
	return aChanged, nil
}

// revalueElem copies from's value into el once it has checked that the
// two are the same element of the same topology.
func revalueElem(el, from Element) (aChanged bool, err error) {
	same := false
	switch d := el.(type) {
	case *Resistor:
		if s, ok := from.(*Resistor); ok && s.Label == d.Label && s.A == d.A && s.B == d.B {
			same, aChanged = true, math.Float64bits(d.R) != math.Float64bits(s.R)
			d.R = s.R
		}
	case *Capacitor:
		if s, ok := from.(*Capacitor); ok && s.Label == d.Label && s.A == d.A && s.B == d.B {
			same, aChanged = true, math.Float64bits(d.C) != math.Float64bits(s.C)
			d.C = s.C
		}
	case *MOSFET:
		if s, ok := from.(*MOSFET); ok && s.Label == d.Label &&
			s.D == d.D && s.G == d.G && s.S == d.S && s.B == d.B && s.W == d.W && s.L == d.L {
			same, aChanged = true, d.Model != s.Model
			d.Model = s.Model
		}
	case *VSource:
		if s, ok := from.(*VSource); ok && s.Label == d.Label && s.P == d.P && s.N == d.N {
			same = true
			d.W = s.W
		}
	case *ISource:
		if s, ok := from.(*ISource); ok && s.Label == d.Label && s.P == d.P && s.N == d.N {
			same = true
			d.W = s.W
		}
	}
	if !same {
		return false, fmt.Errorf("netlist: revalue: element %q (%T) does not match %q (%T)",
			el.Name(), el, from.Name(), from)
	}
	return aChanged, nil
}
