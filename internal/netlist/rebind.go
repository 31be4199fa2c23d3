package netlist

import (
	"fmt"
	"math"
)

// This file is the parameter-rebinding layer: the value half of the
// compile-once/revalue-many split. A circuit's *topology* (nodes,
// element kinds, terminal wiring, aux-unknown layout) fixes every
// compiled artifact downstream — stamp programs, structural sparsity
// patterns, symbolic eliminations. Its *values* (resistances,
// capacitances, MOS model cards, source waveforms) are what a die
// Variation, a fault conductance or a stimulus slice actually moves. A
// Binding captures the value half so an already-compiled engine can be
// revalued in place instead of rebuilt.
//
// Slots are scoped by which side of the MNA system they reach:
//
//   - A-side slots (resistance, capacitance, MOS model) change matrix
//     entries; a consumer caching recorded A-side stamps must drop that
//     recording when one changes.
//   - B-side slots (source waveforms) only reach the right-hand side —
//     a source's A-side stamps are value-independent ±1 incidence
//     entries — so rebinding them leaves A-side recordings valid. This
//     generalises the engine's long-standing RetuneVSource rule.
//
// Rebind reports whether any A-side value actually changed (bitwise,
// math.Float64bits) so a B-only rebind — e.g. moving the ramp input
// between bisection slices — keeps every A-side cache warm.

// SlotKind says which value of an element a binding item rewrites.
type SlotKind uint8

const (
	// SlotR is a resistor's resistance (A-side).
	SlotR SlotKind = iota
	// SlotC is a capacitor's capacitance (A-side, via the transient
	// companion conductance).
	SlotC
	// SlotModel is a MOSFET's model card (A-side).
	SlotModel
	// SlotWave is an independent source's waveform, voltage or current
	// (B-side only).
	SlotWave
)

// bindItem is one slot assignment.
type bindItem struct {
	label string
	kind  SlotKind
	val   float64  // SlotR / SlotC
	model MOSModel // SlotModel
	wave  Waveform // SlotWave
}

// Binding is an ordered set of value assignments to element slots,
// addressed by element label. Bindings are built either by hand (a
// partial retune, e.g. one input source per ramp slice) or by running a
// circuit builder with Builder.Rec attached, which records one slot per
// element created — the complete value set of that build, guaranteed to
// match what the builder would have stamped because it *is* what the
// builder stamped.
type Binding struct {
	items []bindItem
}

// SetR assigns a resistance (A-side slot).
func (b *Binding) SetR(label string, ohms float64) {
	b.items = append(b.items, bindItem{label: label, kind: SlotR, val: ohms})
}

// SetC assigns a capacitance (A-side slot).
func (b *Binding) SetC(label string, farads float64) {
	b.items = append(b.items, bindItem{label: label, kind: SlotC, val: farads})
}

// SetModel assigns a MOSFET model card (A-side slot).
func (b *Binding) SetModel(label string, m MOSModel) {
	b.items = append(b.items, bindItem{label: label, kind: SlotModel, model: m})
}

// SetWave assigns an independent source waveform (B-side slot; the
// element may be a VSource or an ISource).
func (b *Binding) SetWave(label string, w Waveform) {
	b.items = append(b.items, bindItem{label: label, kind: SlotWave, wave: w})
}

// Len returns the number of slot assignments.
func (b *Binding) Len() int { return len(b.items) }

// Reset empties the binding, retaining capacity.
func (b *Binding) Reset() { b.items = b.items[:0] }

// Truncate drops every slot past the first n, retaining capacity. A
// caller holding a recorded base binding appends per-checkout slots
// (fault conductances) after the base and truncates back before the
// next checkout.
func (b *Binding) Truncate(n int) { b.items = b.items[:n] }

// Clone returns an independent copy of the binding. Checkout sessions
// clone a cached base binding before appending their per-fault slots,
// so the cached original is never mutated.
func (b *Binding) Clone() *Binding {
	return &Binding{items: append([]bindItem(nil), b.items...)}
}

// Covers reports whether the binding has exactly one slot per element
// of the circuit. A builder-recorded binding covers its own build by
// construction; checking coverage against a *pooled* circuit is the
// cheap structural guard that the pool key really did pin the same
// topology (element labels are unique, and Rebind fails on any unknown
// label, so equal counts plus successful application is a bijection).
func (b *Binding) Covers(c *Circuit) bool { return len(b.items) == len(c.Elems) }

// applySlot writes one slot assignment into its element. Returns
// whether an A-side value actually changed (bitwise).
func applySlot(el Element, it *bindItem) (aChanged bool, err error) {
	switch it.kind {
	case SlotR:
		r, ok := el.(*Resistor)
		if !ok {
			return false, fmt.Errorf("netlist: rebind %s: slot R on %T", it.label, el)
		}
		if math.Float64bits(r.R) != math.Float64bits(it.val) {
			r.R = it.val
			aChanged = true
		}
	case SlotC:
		c, ok := el.(*Capacitor)
		if !ok {
			return false, fmt.Errorf("netlist: rebind %s: slot C on %T", it.label, el)
		}
		if math.Float64bits(c.C) != math.Float64bits(it.val) {
			c.C = it.val
			aChanged = true
		}
	case SlotModel:
		m, ok := el.(*MOSFET)
		if !ok {
			return false, fmt.Errorf("netlist: rebind %s: slot model on %T", it.label, el)
		}
		if m.Model != it.model {
			m.Model = it.model
			aChanged = true
		}
	case SlotWave:
		// Waveform values never reach the matrix (source incidence
		// entries are value-independent), so a wave slot is always
		// assigned and never invalidates A-side state. No comparison:
		// waveforms may hold slices (PWL) and are cheap to swap.
		switch s := el.(type) {
		case *VSource:
			s.W = it.wave
		case *ISource:
			s.W = it.wave
		default:
			return false, fmt.Errorf("netlist: rebind %s: slot wave on %T", it.label, el)
		}
	}
	return aChanged, nil
}

// Rebind applies the binding to the circuit's elements in place and
// reports whether any A-side value changed. Unknown labels and
// kind-mismatched slots error; the circuit may then be partially
// revalued, so callers must treat an error as "discard this circuit"
// (the macro layer falls back to a fresh build).
//
// Rebinding rewrites numeric values only: it never adds or removes
// elements, never moves terminals, and therefore never invalidates
// node numbering, aux layout, compiled stamp programs or structural
// sparsity patterns.
func (c *Circuit) Rebind(b *Binding) (aChanged bool, err error) {
	for i := range b.items {
		it := &b.items[i]
		el := c.elemByName(it.label)
		if el == nil {
			return aChanged, fmt.Errorf("netlist: rebind: no element %q", it.label)
		}
		ch, err := applySlot(el, it)
		if err != nil {
			return aChanged, err
		}
		aChanged = aChanged || ch
	}
	return aChanged, nil
}
