package faults

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/process"
)

// InjectResult is the whole edit the circuit-level fault model for one
// fault makes to one circuit, computed without touching the circuit:
// Apply performs it, and Inject is Plan then Apply. It is also the
// classifier the low-rank fault-update path needs: a fault whose model
// only appends elements between existing nodes can be expressed as a
// fixed-size matrix delta against the nominal factorization, while one
// that creates nodes or retargets terminals changes the system
// dimension and must go through a full rebuild.
type InjectResult struct {
	// Added lists the elements the edit appends, in injection order.
	// Their terminals are node IDs of the inspected circuit, including
	// the IDs Apply's new nodes will receive.
	Added []netlist.Element
	// TopologyChanged reports that the edit creates a node or moves a
	// terminal: opens and new devices (split nodes), or a bridge naming
	// a net the circuit does not have (created as a new floating node).
	TopologyChanged bool

	// nodes are the node names the edit creates, in creation order; the
	// i-th receives ID NumNodes()+i of the inspected circuit.
	nodes []string
	// moved are the terminals the edit reconnects, in walk order.
	moved []move
}

// move reconnects terminal term of el to node to.
type move struct {
	el   netlist.Element
	term int
	to   netlist.NodeID
}

// Apply performs the planned edit. ckt must be the circuit Plan
// inspected, unchanged since: the moved terminals belong to its
// elements, and the planned node IDs assume its node count. A plan is
// applied at most once, since the circuit then owns its Added elements.
func (r InjectResult) Apply(ckt *netlist.Circuit) {
	for _, name := range r.nodes {
		ckt.Node(name)
	}
	for _, m := range r.moved {
		m.el.Retarget(m.term, m.to)
	}
	for _, e := range r.Added {
		ckt.Add(e)
	}
}

// Inject applies the circuit-level fault model for f to ckt in place.
// On error ckt is left unchanged.
func Inject(ckt *netlist.Circuit, f Fault, proc *process.Process, opt InjectOptions) error {
	plan, err := Plan(ckt, f, proc, opt)
	if err != nil {
		return err
	}
	plan.Apply(ckt)
	return nil
}

// Plan computes the edit the circuit-level fault model for f makes to
// ckt, without mutating ckt, so it may run concurrently on a shared
// circuit whose element index is already built. The models follow the
// paper: resistive bridges with material-determined values for shorts;
// 2 Ω extra contacts; 2 kΩ pinholes; node splitting for opens; a
// minimum-size parasitic transistor for new devices; a low-ohmic
// drain-source bridge for shorted devices; and 500 Ω ∥ 1 fF for
// non-catastrophic variants.
func Plan(ckt *netlist.Circuit, f Fault, proc *process.Process, opt InjectOptions) (InjectResult, error) {
	var res InjectResult
	// lookup finds a node of ckt or one the plan has created so far;
	// node creates a missing one, as Circuit.Node would.
	lookup := func(name string) (netlist.NodeID, bool) {
		if id, ok := ckt.NodeByName(name); ok {
			return id, true
		}
		for i, n := range res.nodes {
			if n == name {
				return netlist.NodeID(ckt.NumNodes() + i), true
			}
		}
		return 0, false
	}
	node := func(name string) netlist.NodeID {
		if id, ok := lookup(name); ok {
			return id
		}
		res.nodes = append(res.nodes, name)
		return netlist.NodeID(ckt.NumNodes() + len(res.nodes) - 1)
	}
	add := func(els ...netlist.Element) { res.Added = append(res.Added, els...) }
	bridge := func(tag string, a, b netlist.NodeID, r float64) {
		if a == b {
			return
		}
		if opt.NonCat && (f.Kind == Short || f.Kind == ExtraContactKind) {
			add(&netlist.Resistor{Label: "flt." + tag + ".r", A: a, B: b, R: proc.NonCatRes},
				&netlist.Capacitor{Label: "flt." + tag + ".c", A: a, B: b, C: proc.NonCatCap})
			return
		}
		add(&netlist.Resistor{Label: "flt." + tag, A: a, B: b, R: r})
	}

	switch f.Kind {
	case Short, ThickOxPinhole, ExtraContactKind, JunctionPinholeKind:
		if len(f.Nets) < 2 {
			return InjectResult{}, fmt.Errorf("faults: %v needs ≥2 nets", f.Kind)
		}
		r := f.Res
		if r <= 0 {
			switch f.Kind {
			case ExtraContactKind:
				r = proc.ExtraContactRes
			case ThickOxPinhole, JunctionPinholeKind:
				r = proc.PinholeRes
			default:
				r = 0.2 // metal default; defectsim normally sets Res
			}
		}
		hub := node(resolve(f.Nets[0]))
		for i, n := range f.Nets[1:] {
			bridge(fmt.Sprintf("%d", i), hub, node(resolve(n)), r)
		}

	case GOSPinhole:
		mos, ok := ckt.Element(f.Device).(*netlist.MOSFET)
		if !ok {
			return InjectResult{}, fmt.Errorf("faults: GOS pinhole on unknown device %q", f.Device)
		}
		r := f.Res
		if r <= 0 {
			r = proc.PinholeRes
		}
		switch opt.GOS {
		case GOSToSource:
			add(&netlist.Resistor{Label: "flt.gos", A: mos.G, B: mos.S, R: r})
		case GOSToDrain:
			add(&netlist.Resistor{Label: "flt.gos", A: mos.G, B: mos.D, R: r})
		case GOSToChannel:
			// Channel midpoint: pinhole feeds both junctions.
			add(&netlist.Resistor{Label: "flt.gos.s", A: mos.G, B: mos.S, R: 2 * r},
				&netlist.Resistor{Label: "flt.gos.d", A: mos.G, B: mos.D, R: 2 * r})
		default:
			return InjectResult{}, fmt.Errorf("faults: bad GOS variant %d", opt.GOS)
		}

	case ShortedDevice:
		mos, ok := ckt.Element(f.Device).(*netlist.MOSFET)
		if !ok {
			return InjectResult{}, fmt.Errorf("faults: shorted device %q not found", f.Device)
		}
		r := f.Res
		if r <= 0 {
			r = proc.ShortedDeviceRes
		}
		add(&netlist.Resistor{Label: "flt.sdev", A: mos.D, B: mos.S, R: r})

	case Open:
		if len(f.Nets) != 1 {
			return InjectResult{}, fmt.Errorf("faults: open needs exactly 1 net")
		}
		split := node(resolve(f.Nets[0]) + "#split")
		if err := res.moveFar(ckt, f.FarTerminals, lookup, split); err != nil {
			return InjectResult{}, err
		}

	case NewDevice:
		if len(f.Nets) != 1 {
			return InjectResult{}, fmt.Errorf("faults: new device needs exactly 1 net")
		}
		orig := node(resolve(f.Nets[0]))
		split := node(resolve(f.Nets[0]) + "#nd")
		if err := res.moveFar(ckt, f.FarTerminals, lookup, split); err != nil {
			return InjectResult{}, err
		}
		var gate netlist.NodeID
		if f.GateNet == "" {
			// Floating parasitic gate: weakly tied to ground.
			gate = node(resolve(f.Nets[0]) + "#ndgate")
			add(&netlist.Resistor{Label: "flt.ndg", A: gate, B: netlist.Ground, R: 1e9})
		} else {
			gate = node(resolve(f.GateNet))
		}
		add(&netlist.MOSFET{
			Label: "flt.nd", D: orig, G: gate, S: split, B: netlist.Ground,
			Model: netlist.NMOS1(), W: 2e-6, L: 2e-6,
		})

	default:
		return InjectResult{}, fmt.Errorf("faults: unknown kind %v", f.Kind)
	}
	res.TopologyChanged = len(res.nodes) > 0 || len(res.moved) > 0
	return res, nil
}

// moveFar plans the move of every terminal listed in far from its
// present net to the split node. A terminal's present net accounts for
// the moves planned before it, so a duplicate far entry finds its
// terminal already gone from the net and fails.
func (r *InjectResult) moveFar(ckt *netlist.Circuit, far []Terminal, lookup func(string) (netlist.NodeID, bool), split netlist.NodeID) error {
	if len(far) == 0 {
		return fmt.Errorf("faults: open with no far terminals")
	}
	for _, t := range far {
		el := ckt.Element(t.Device)
		if el == nil {
			return fmt.Errorf("faults: open far terminal on unknown element %q", t.Device)
		}
		want, ok := lookup(resolve(t.Net))
		if !ok {
			return fmt.Errorf("faults: open net %q not in netlist", t.Net)
		}
		hit := false
		for i, n := range el.Nodes() {
			for _, m := range r.moved {
				if m.el == el && m.term == i {
					n = m.to
				}
			}
			if n == want {
				r.moved = append(r.moved, move{el: el, term: i, to: split})
				hit = true
			}
		}
		if !hit {
			return fmt.Errorf("faults: element %q has no terminal on %q", t.Device, t.Net)
		}
	}
	return nil
}
