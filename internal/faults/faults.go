// Package faults defines the circuit-level fault records produced by the
// defect simulator, the equivalence collapsing that turns raw faults into
// fault classes with magnitudes, and the circuit-level fault models that
// inject a fault into a netlist for simulation — the middle of the paper's
// defect-oriented test path (Fig. 1): faults → fault collapsing → fault
// classes → circuit-level fault models.
package faults

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates fault mechanisms, matching the rows of the paper's
// Table 1.
type Kind int

const (
	// Short is an extra-material bridge between two or more nets.
	Short Kind = iota
	// ExtraContactKind is a parasitic vertical connection (2 Ω).
	ExtraContactKind
	// GOSPinhole is a gate-oxide pinhole on one device (2 kΩ, modelled
	// three ways: to source, to drain, to channel; the worst case is
	// selected during fault simulation).
	GOSPinhole
	// JunctionPinholeKind is a leaky junction from a diffusion net to its
	// bulk (2 kΩ).
	JunctionPinholeKind
	// ThickOxPinhole is a vertical short through field oxide between
	// crossing conductors (2 kΩ).
	ThickOxPinhole
	// Open severs a net: the far-side terminals are reconnected to a new
	// split node.
	Open
	// NewDevice is a parasitic minimum-size transistor created by extra
	// poly crossing a diffusion region.
	NewDevice
	// ShortedDevice bridges a device's drain and source (missing gate).
	ShortedDevice
	numKinds
)

// NumKinds is the number of fault kinds.
const NumKinds = int(numKinds)

// String implements fmt.Stringer, using the paper's Table 1 names.
func (k Kind) String() string {
	switch k {
	case Short:
		return "Short"
	case ExtraContactKind:
		return "Extra contact"
	case GOSPinhole:
		return "Gate oxide pinhole"
	case JunctionPinholeKind:
		return "Junction pinhole"
	case ThickOxPinhole:
		return "Thick oxide pinhole"
	case Open:
		return "Open"
	case NewDevice:
		return "New device"
	case ShortedDevice:
		return "Shorted device"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// GOSVariant selects how a gate-oxide pinhole is modelled.
type GOSVariant int

const (
	// GOSToSource connects gate to source through the pinhole.
	GOSToSource GOSVariant = iota
	// GOSToDrain connects gate to drain.
	GOSToDrain
	// GOSToChannel connects gate to the channel midpoint (modelled as a
	// split pinhole resistance to both source and drain).
	GOSToChannel
	// NumGOSVariants counts the variants.
	NumGOSVariants
)

// Terminal identifies an element terminal for the open-fault model: every
// terminal of element Device currently connected to Net is moved to the
// split node.
type Terminal struct {
	Device string
	Net    string
}

// Fault is one circuit-level fault extracted from one defect.
type Fault struct {
	Kind Kind
	// Nets are the nets involved (sorted), for Short / pinhole kinds.
	Nets []string
	// Device is the affected device for GOS / ShortedDevice kinds and
	// the host device for NewDevice.
	Device string
	// Res is the fault-model resistance in ohms (0 = use process value).
	Res float64
	// FarTerminals lists the terminals split off by an Open or isolated
	// behind a NewDevice.
	FarTerminals []Terminal
	// GateNet is the net driving a NewDevice's parasitic gate
	// ("" = floating).
	GateNet string
	// Local reports whether every involved net is internal to the macro
	// (the paper's 27.8 % of comparator faults).
	Local bool
}

// Key returns the canonical equivalence key: faults with equal keys are
// circuit-level equivalent and collapse into one class.
func (f Fault) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", int(f.Kind))
	nets := append([]string(nil), f.Nets...)
	sort.Strings(nets)
	b.WriteString(strings.Join(nets, ","))
	fmt.Fprintf(&b, "|%s|%s|", f.Device, f.GateNet)
	terms := make([]string, len(f.FarTerminals))
	for i, t := range f.FarTerminals {
		terms[i] = t.Device + "/" + t.Net
	}
	sort.Strings(terms)
	b.WriteString(strings.Join(terms, ","))
	return b.String()
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f.Kind {
	case Open:
		return fmt.Sprintf("%s(%s: %d terms)", f.Kind, strings.Join(f.Nets, ","), len(f.FarTerminals))
	case GOSPinhole, ShortedDevice:
		return fmt.Sprintf("%s(%s)", f.Kind, f.Device)
	case NewDevice:
		return fmt.Sprintf("%s(%s gate=%s)", f.Kind, strings.Join(f.Nets, ","), f.GateNet)
	default:
		return fmt.Sprintf("%s(%s)", f.Kind, strings.Join(f.Nets, ","))
	}
}

// Class is an equivalence class of faults with its magnitude (the number
// of raw faults that collapsed into it, which determines the likelihood of
// the fault, per the paper).
type Class struct {
	Fault Fault
	Count int
}

// Collapse groups faults by Key. Classes are ordered by descending count,
// then by key for determinism.
func Collapse(fs []Fault) []Class {
	byKey := map[string]int{}
	out := []Class{} // never nil: an empty catalogue encodes as []
	var keys []string
	for _, f := range fs {
		k := f.Key()
		if i, ok := byKey[k]; ok {
			out[i].Count++
		} else {
			byKey[k] = len(out)
			out = append(out, Class{Fault: f, Count: 1})
			keys = append(keys, k)
		}
	}
	SortClasses(out, keys)
	return out
}

// SortClasses orders cs by descending count, then by key, where keys[i]
// is cs[i].Fault.Key(); it permutes keys alongside. Keys are unique per
// class, so the order is total.
func SortClasses(cs []Class, keys []string) { sort.Sort(byMagnitude{cs, keys}) }

type byMagnitude struct {
	cs   []Class
	keys []string
}

func (b byMagnitude) Len() int { return len(b.cs) }

func (b byMagnitude) Less(i, j int) bool {
	if b.cs[i].Count != b.cs[j].Count {
		return b.cs[i].Count > b.cs[j].Count
	}
	return b.keys[i] < b.keys[j]
}

func (b byMagnitude) Swap(i, j int) {
	b.cs[i], b.cs[j] = b.cs[j], b.cs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// CountByKind tallies faults (not classes) per kind.
func CountByKind(fs []Fault) map[Kind]int {
	out := map[Kind]int{}
	for _, f := range fs {
		out[f.Kind]++
	}
	return out
}

// ClassesByKind tallies classes per kind.
func ClassesByKind(cs []Class) map[Kind]int {
	out := map[Kind]int{}
	for _, c := range cs {
		out[c.Fault.Kind]++
	}
	return out
}

// NonCatEligible reports whether a catastrophic fault of this kind evolves
// a non-catastrophic (near-miss) variant. Per the paper, non-catastrophic
// faults are derived from shorts and extra contacts; the other kinds are
// already high-ohmic.
func (f Fault) NonCatEligible() bool {
	return f.Kind == Short || f.Kind == ExtraContactKind
}

// resolve maps layout net names to netlist node names: vss/gnd to
// ground, other names unchanged.
func resolve(net string) string {
	switch net {
	case "vss", "gnd":
		return "0"
	}
	return net
}

// InjectOptions configure fault injection.
type InjectOptions struct {
	// NonCat selects the near-miss model (500 Ω ∥ 1 fF) for eligible
	// kinds instead of the catastrophic resistance.
	NonCat bool
	// GOS selects the gate-oxide pinhole variant.
	GOS GOSVariant
}
