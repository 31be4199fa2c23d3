package macros

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/digital"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/signature"
)

// DecoderMacro is the digital thermometer-to-binary decoder: a one-hot
// transition-detect stage (h_i = t_i AND NOT t_{i+1}) followed by an
// OR-plane forming the vehicle's N output bits — the gate-level
// equivalent of the ROM decoder in the real converter. Being a digital cell it is analysed
// at gate level: shorts become bridging faults (with the classic IDDQ
// observation when the bridged nets fight), opens become stuck-at faults,
// and analog-leak defects (junction pinholes, parasitic devices) raise
// IDDQ without a logic effect.
type DecoderMacro struct {
	// Veh is the vehicle spec: thermometer input count
	// (Vehicle.DecoderInputs — t001..t(2^N-1); code 0 needs no input)
	// and output width derive from it.
	Veh Vehicle
	ckt *digital.Circuit
	// tIdx/bIdx are the compiled net slots of the thermometer inputs
	// (tIdx[i-1] ↔ t net i) and output bits — resolved once so the
	// all-levels decode sweep runs name-free over a reused scratch.
	tIdx []int
	bIdx []int
	// gates maps a gate name to its gate, for the device-level faults.
	gates   map[string]*digital.Gate
	scratch sync.Pool // of *decodeScratch
}

// decodeScratch is one goroutine's decode state: the gate-level scratch
// with one lane per input level, and the codes those levels decode to.
type decodeScratch struct {
	sim   *digital.Scratch
	codes []int
	seen  []bool
}

// tnet names thermometer input i (1-based).
func tnet(i int) string { return fmt.Sprintf("t%03d", i) }

// NewDecoder builds the decoder macro of the given vehicle (the gate
// network is constructed once and shared, index-compiled for the
// decode sweep).
func NewDecoder(veh Vehicle) *DecoderMacro {
	m := &DecoderMacro{Veh: veh, ckt: buildDecoderCircuit(veh)}
	for i := 1; i <= veh.DecoderInputs(); i++ {
		idx, ok := m.ckt.NetIndex(tnet(i))
		if !ok {
			panic("macros: decoder input net missing: " + tnet(i))
		}
		m.tIdx = append(m.tIdx, idx)
	}
	for bit := 0; bit < veh.Bits; bit++ {
		name := fmt.Sprintf("b%d", bit)
		idx, ok := m.ckt.NetIndex(name)
		if !ok {
			panic("macros: decoder output net missing: " + name)
		}
		m.bIdx = append(m.bIdx, idx)
	}
	m.gates = make(map[string]*digital.Gate, len(m.ckt.Gates))
	for _, g := range m.ckt.Gates {
		m.gates[g.Name] = g
	}
	m.scratch.New = func() any {
		s, err := m.ckt.NewScratch(veh.Comparators())
		if err != nil {
			panic(err) // unreachable: NetIndex above already compiled
		}
		return &decodeScratch{sim: s, codes: make([]int, veh.Comparators()), seen: make([]bool, veh.Comparators())}
	}
	return m
}

// Name implements Macro.
func (m *DecoderMacro) Name() string { return "decoder" }

// Count implements Macro.
func (m *DecoderMacro) Count() int { return 1 }

// buildDecoderCircuit constructs the gate network.
func buildDecoderCircuit(veh Vehicle) *digital.Circuit {
	inputs := veh.DecoderInputs()
	c := &digital.Circuit{}
	for i := 1; i <= inputs; i++ {
		c.Inputs = append(c.Inputs, tnet(i))
	}
	// Inverters for t2..t(2^N-1).
	for i := 2; i <= inputs; i++ {
		c.AddGate(fmt.Sprintf("inv%03d", i), digital.Not, fmt.Sprintf("n%03d", i), tnet(i))
	}
	// One-hot stage.
	for i := 1; i <= inputs; i++ {
		h := fmt.Sprintf("h%03d", i)
		if i == inputs {
			c.AddGate(fmt.Sprintf("and%03d", i), digital.Buf, h, tnet(i))
		} else {
			c.AddGate(fmt.Sprintf("and%03d", i), digital.And, h, tnet(i), fmt.Sprintf("n%03d", i+1))
		}
	}
	// OR-plane: bit b = OR of h_i for every i with bit b set.
	for bit := 0; bit < veh.Bits; bit++ {
		var ins []string
		for i := 1; i <= inputs; i++ {
			if i&(1<<bit) != 0 {
				ins = append(ins, fmt.Sprintf("h%03d", i))
			}
		}
		out := fmt.Sprintf("b%d", bit)
		c.Outputs = append(c.Outputs, out)
		buildOrTree(c, out, ins)
	}
	return c
}

// buildOrTree reduces ins with 2-input OR gates into out.
func buildOrTree(c *digital.Circuit, out string, ins []string) {
	level := 0
	for len(ins) > 1 {
		var next []string
		for i := 0; i < len(ins); i += 2 {
			if i+1 == len(ins) {
				next = append(next, ins[i])
				continue
			}
			var o string
			if len(ins) == 2 {
				o = out
			} else {
				o = fmt.Sprintf("%s_l%d_%d", out, level, i/2)
			}
			c.AddGate(o+"g", digital.Or, o, ins[i], ins[i+1])
			next = append(next, o)
		}
		ins = next
		level++
	}
	if len(ins) == 1 && ins[0] != out {
		c.AddGate(out+"g", digital.Buf, out, ins[0])
	}
}

// decodeAll runs the gate network on the thermometer codes of every
// input level k at once, lane k carrying the code in which comparators
// 1..k fire, and leaves each level's output code in d.codes[k]. iddq
// reports a bridge conflict at any level.
func (m *DecoderMacro) decodeAll(d *decodeScratch, f digital.Fault) (iddq bool, err error) {
	d.sim.Reset()
	for i, idx := range m.tIdx {
		// Input t_(i+1) is high in lanes i+1 and up (a shift by 64 or
		// more clears the word).
		for w := 0; w*64 < len(d.codes); w++ {
			d.sim.SetWord(idx, w, ^uint64(0)<<max(0, i+1-64*w))
		}
	}
	iddq, _, err = m.ckt.EvalInto(d.sim, f)
	if err != nil {
		return false, err
	}
	for k := range d.codes {
		d.codes[k] = 0
		for bit, idx := range m.bIdx {
			if d.sim.Val(idx, k) {
				d.codes[k] |= 1 << bit
			}
		}
	}
	return iddq, nil
}

// mapFault converts a layout-extracted fault record into the gate-level
// fault model. The second return value is false for defects with no
// electrical consequence at gate level.
func (m *DecoderMacro) mapFault(f *faults.Fault) (digital.Fault, bool) {
	isRail := func(n string) (bool, bool) { // (isRail, value)
		switch n {
		case "vddd":
			return true, true
		case "vss", "0":
			return true, false
		}
		return false, false
	}
	stuckVal := func(seed string) bool {
		h := fnv.New32a()
		h.Write([]byte(seed))
		return h.Sum32()&1 == 1
	}
	switch f.Kind {
	case faults.Short, faults.ExtraContactKind, faults.ThickOxPinhole:
		nets := append([]string(nil), f.Nets...)
		sort.Strings(nets)
		if len(nets) < 2 {
			return digital.Fault{}, false
		}
		a, bn := nets[0], nets[1]
		railA, valA := isRail(a)
		railB, valB := isRail(bn)
		switch {
		case railA && railB:
			// Supply-to-supply short: pure IDDQ.
			return digital.Fault{IDDQOnly: true}, true
		case railA:
			return digital.Fault{Kind: digital.StuckAt, Net: bn, Val: valA, IDDQOnly: true}, true
		case railB:
			return digital.Fault{Kind: digital.StuckAt, Net: a, Val: valB, IDDQOnly: true}, true
		default:
			return digital.Fault{Kind: digital.Bridge, Net: a, Net2: bn}, true
		}
	case faults.Open:
		if len(f.Nets) != 1 {
			return digital.Fault{}, false
		}
		return digital.Fault{Kind: digital.StuckAt, Net: f.Nets[0], Val: stuckVal(f.Nets[0])}, true
	case faults.GOSPinhole:
		// Gate-to-channel leak in a logic gate: modelled as a bridge
		// between the cell's input and output nets.
		in, out, ok := m.gateNets(f.Device)
		if !ok {
			return digital.Fault{IDDQOnly: true}, true
		}
		return digital.Fault{Kind: digital.Bridge, Net: in, Net2: out}, true
	case faults.ShortedDevice:
		// A shorted pull-down (NMOS) pins the output low, a shorted
		// pull-up pins it high; either way quiescent current flows
		// whenever the complementary device fights it.
		_, out, ok := m.gateNets(f.Device)
		if !ok {
			return digital.Fault{}, false
		}
		return digital.Fault{Kind: digital.StuckAt, Net: out, Val: stuckVal(f.Device), IDDQOnly: true}, true
	case faults.JunctionPinholeKind, faults.NewDevice:
		return digital.Fault{IDDQOnly: true}, true
	}
	return digital.Fault{}, false
}

// gateNets resolves a layout device name ("<gate>.n"/"<gate>.p") to the
// gate's first input net and output net.
func (m *DecoderMacro) gateNets(dev string) (in, out string, ok bool) {
	name := dev
	if n := len(name); n > 2 && (name[n-2:] == ".n" || name[n-2:] == ".p") {
		name = name[:n-2]
	}
	g, ok := m.gates[name]
	if !ok {
		return "", "", false
	}
	return g.In[0], g.Out, true
}

// Respond implements Macro: the missing-code test is run directly through
// the gate network (all 2^N thermometer patterns of the vehicle), and
// IDDQ is flagged when any pattern drives a bridge to a conflict.
func (m *DecoderMacro) Respond(ctx context.Context, f *faults.Fault, opt RespondOpts) (*signature.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	resp := &signature.Response{Currents: map[string]float64{}}
	sp := opt.span(obs.StageInject, m.Name())
	var df digital.Fault
	if f != nil {
		var ok bool
		df, ok = m.mapFault(f)
		if !ok {
			df = digital.Fault{}
		}
	}
	sp.End()
	sp = opt.span(obs.StageFaultSim, m.Name())
	if err := ctx.Err(); err != nil {
		sp.End()
		return nil, err
	}
	d := m.scratch.Get().(*decodeScratch)
	defer m.scratch.Put(d)
	iddq, err := m.decodeAll(d, df)
	if err != nil {
		sp.End()
		return nil, err
	}
	clear(d.seen)
	erratic := false
	for _, code := range d.codes {
		if code >= 0 && code < len(d.seen) {
			d.seen[code] = true
		} else {
			erratic = true
		}
	}
	sp.End()
	// IDDQ is reported as the crowbar-current estimate of one fighting
	// gate pair (the digital supply is otherwise quiescent).
	const crowbar = 1e-3
	if iddq {
		resp.Currents["iddq.dc"] = crowbar
	} else {
		resp.Currents["iddq.dc"] = 0
	}
	if opt.CurrentsOnly {
		return resp, nil
	}
	csp := opt.span(obs.StageClassify, m.Name())
	missing := false
	for _, s := range d.seen {
		if !s {
			missing = true
		}
	}
	switch {
	case erratic:
		resp.Voltage = signature.VSigMixed
		resp.MissingCode = true
	case missing:
		resp.Voltage = signature.VSigStuck
		resp.MissingCode = true
	default:
		resp.Voltage = signature.VSigNone
	}
	csp.End()
	return resp, nil
}

// Layout implements Macro: a channel-routed abstraction — every net gets
// one metal1 track (with consumer stubs carrying the consuming gate's
// name for open-fault extraction), tracks are packed into columns, and
// each gate contributes an NMOS/PMOS pair in device rows for the
// oxide/junction defect mechanisms. The dft flag does not change the
// decoder.
func (m *DecoderMacro) Layout(bool) *layout.Cell {
	b := layout.NewBuilder("decoder")
	b.DefaultWidth = 1.0

	// Net order: inputs first, then gate outputs in construction order.
	nets := append([]string(nil), m.ckt.Inputs...)
	consumers := map[string][]string{}
	for _, g := range m.ckt.Gates {
		nets = append(nets, g.Out)
		for _, in := range g.In {
			consumers[in] = append(consumers[in], g.Name)
		}
	}

	// Tracks: pitch 2 µm vertically, 300 tracks per column.
	const pitch = 2.0
	const perCol = 300
	const trackLen = 100.0
	const colGap = 40.0
	for idx, net := range nets {
		col := idx / perCol
		row := idx % perCol
		x0 := float64(col) * (trackLen + colGap)
		y := float64(row) * pitch
		b.HWire(process.Metal1, net, x0, x0+trackLen, y)
		// Consumer stubs spaced along the track carry the consuming
		// gate name so opens isolate real loads.
		for ci, g := range consumers[net] {
			x := x0 + 5 + float64(ci%9)*10
			b.C.Add(layout.Shape{
				Layer: process.Metal1, Net: net, Role: layout.Wire,
				Device: g,
				Rect:   rectAt(x, y+0.5, 1.0, 1.5),
			})
		}
	}

	// Device area: one NMOS + PMOS pair per gate, below the channel.
	const devY0 = -20.0
	for gi, g := range m.ckt.Gates {
		x := 4 + float64(gi%220)*6
		y := devY0 - float64(gi/220)*16
		b.MOS(g.Name+".n", g.Out, g.In[0], "vss", x, y, layout.MOSOpts{W: 3, L: 1})
		b.MOS(g.Name+".p", g.Out, g.In[0], "vddd", x, y-8, layout.MOSOpts{W: 3, L: 1, PMOS: true, Bulk: "vddd"})
	}
	// Supply rails along the device area.
	bounds := b.C.Bounds()
	b.HWire(process.Metal2, "vddd", bounds.X0, bounds.X1, devY0+6)
	b.HWire(process.Metal2, "vss", bounds.X0, bounds.X1, devY0+9)

	for i := 1; i <= m.Veh.DecoderInputs(); i++ {
		b.C.MarkPort(tnet(i))
	}
	b.C.MarkPort("vddd", "vss")
	for bit := 0; bit < m.Veh.Bits; bit++ {
		b.C.MarkPort(fmt.Sprintf("b%d", bit))
	}
	return b.C
}

// rectAt builds a rect centred at (x, y) with the given width and height.
func rectAt(x, y, w, h float64) geom.Rect {
	return geom.NewRect(x-w/2, y-h/2, x+w/2, y+h/2)
}
