package netlist

// Builder wraps a Circuit with a name-based construction API used by the
// macro library. Node names are plain strings; "0" is ground.
type Builder struct {
	C *Circuit
}

// NewBuilder returns a builder over a fresh circuit.
func NewBuilder() *Builder { return &Builder{C: New()} }

// N resolves (creating if needed) a node by name.
func (b *Builder) N(name string) NodeID { return b.C.Node(name) }

// R adds a resistor of the given ohms between nodes a and bn.
func (b *Builder) R(name, a, bn string, ohms float64) *Resistor {
	r := &Resistor{Label: name, A: b.N(a), B: b.N(bn), R: ohms}
	b.C.Add(r)
	return r
}

// Cap adds a capacitor of the given farads between nodes a and bn.
func (b *Builder) Cap(name, a, bn string, farads float64) *Capacitor {
	c := &Capacitor{Label: name, A: b.N(a), B: b.N(bn), C: farads}
	b.C.Add(c)
	return c
}

// Vsrc adds an independent voltage source with waveform w from p (+) to
// n (-).
func (b *Builder) Vsrc(name, p, n string, w Waveform) *VSource {
	v := &VSource{Label: name, P: b.N(p), N: b.N(n), W: w}
	b.C.Add(v)
	return v
}

// Isrc adds an independent current source with waveform w.
func (b *Builder) Isrc(name, p, n string, w Waveform) *ISource {
	i := &ISource{Label: name, P: b.N(p), N: b.N(n), W: w}
	b.C.Add(i)
	return i
}

// CoxPerUm2 is the gate-oxide capacitance per µm² used for the automatic
// gate capacitors (≈ 20 nm oxide).
const CoxPerUm2 = 1.7e-15

// CjPerUm is the junction capacitance per µm of device width used for the
// automatic drain/source capacitors.
const CjPerUm = 0.8e-15

// MOS adds a MOSFET (W, L in µm) together with its linear gate and
// junction capacitances (Cgs, Cgd to the channel terminals; Cdb, Csb to
// the bulk), so transient analyses see realistic charge storage.
func (b *Builder) MOS(name, d, g, s, bulk string, wUm, lUm float64, model MOSModel) *MOSFET {
	m := &MOSFET{
		Label: name,
		D:     b.N(d), G: b.N(g), S: b.N(s), B: b.N(bulk),
		Model: model,
		W:     wUm * 1e-6, L: lUm * 1e-6,
	}
	b.C.Add(m)
	cg := CoxPerUm2 * wUm * lUm / 2
	cj := CjPerUm * wUm
	b.C.Add(&Capacitor{Label: name + ".cgs", A: m.G, B: m.S, C: cg})
	b.C.Add(&Capacitor{Label: name + ".cgd", A: m.G, B: m.D, C: cg})
	b.C.Add(&Capacitor{Label: name + ".cdb", A: m.D, B: m.B, C: cj})
	b.C.Add(&Capacitor{Label: name + ".csb", A: m.S, B: m.B, C: cj})
	return m
}

// NMOS adds an n-channel device with the default model.
func (b *Builder) NMOS(name, d, g, s string, wUm, lUm float64) *MOSFET {
	return b.MOS(name, d, g, s, "0", wUm, lUm, NMOS1())
}

// PMOS adds a p-channel device with the default model, bulk tied to the
// named well/supply node.
func (b *Builder) PMOS(name, d, g, s, bulk string, wUm, lUm float64) *MOSFET {
	return b.MOS(name, d, g, s, bulk, wUm, lUm, PMOS1())
}
