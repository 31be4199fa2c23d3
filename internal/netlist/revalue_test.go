package netlist

import (
	"strings"
	"testing"
)

// revalueBench is the parametrised testbench of the Revalue tests: one
// element of every kind, with the values a die would move.
type revalueBench struct {
	r, c, w float64
	vin     Waveform
	model   MOSModel
}

func (p revalueBench) build() *Builder {
	b := NewBuilder()
	b.Vsrc("vdd", "vdd", "0", DC(5))
	b.Vsrc("vin", "in", "0", p.vin)
	b.NMOS("m1", "out", "in", "0", p.w, 1)
	b.MOS("m2", "out", "in", "vdd", "vdd", 8, 1, p.model)
	b.R("rl", "out", "mid", p.r)
	b.Cap("cl", "mid", "0", p.c)
	b.Isrc("ib", "vdd", "out", DC(1e-6))
	return b
}

func nominalBench() revalueBench {
	return revalueBench{r: 2200, c: 50e-15, w: 4, vin: DC(1), model: PMOS1()}
}

// TestRevalueStructuralGuard requires every topology mismatch to be an
// error: Revalue must never copy values across circuits that would not
// compile to the same engine.
func TestRevalueStructuralGuard(t *testing.T) {
	nom := nominalBench()
	cases := []struct {
		name string
		src  func() *Circuit
		want string
	}{
		{"element count", func() *Circuit {
			b := nom.build()
			b.R("rx", "out", "0", 1e6)
			return b.C
		}, "elements"},
		{"node count", func() *Circuit {
			b := nom.build()
			b.N("spare")
			return b.C
		}, "nodes"},
		{"kind", func() *Circuit {
			b := nom.build()
			for i, el := range b.C.Elems {
				if el.Name() == "rl" {
					b.C.Elems[i] = &Capacitor{Label: "rl", A: b.N("out"), B: b.N("mid"), C: 1e-15}
				}
			}
			return b.C
		}, `"rl"`},
		{"label", func() *Circuit {
			b := nom.build()
			b.C.Element("rl").(*Resistor).Label = "rl2"
			return b.C
		}, `"rl2"`},
		{"terminal", func() *Circuit {
			b := nom.build()
			b.C.Element("vdd").Retarget(1, b.N("mid"))
			return b.C
		}, `"vdd"`},
		{"mosfet width", func() *Circuit {
			p := nom
			p.w = 5
			return p.build().C
		}, `"m1"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := nom.build().C
			_, err := dst.Revalue(tc.src())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Revalue error = %v, want one naming %s", err, tc.want)
			}
		})
	}
}

// TestRevalueReportsASideChanges pins the aChanged contract: only a
// resistance, capacitance or model-card change counts, and every value
// of the source build lands in the revalued circuit.
func TestRevalueReportsASideChanges(t *testing.T) {
	hot := PMOS1()
	hot.VT0 += 0.01
	cases := []struct {
		name    string
		edit    func(*revalueBench)
		aChange bool
	}{
		{"equal build", func(*revalueBench) {}, false},
		{"resistance", func(p *revalueBench) { p.r *= 1.01 }, true},
		{"capacitance", func(p *revalueBench) { p.c *= 1.01 }, true},
		{"model card", func(p *revalueBench) { p.model = hot }, true},
		{"waveform only", func(p *revalueBench) { p.vin = DC(2) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := nominalBench()
			tc.edit(&p)
			dst, src := nominalBench().build().C, p.build().C
			aChanged, err := dst.Revalue(src)
			if err != nil {
				t.Fatal(err)
			}
			if aChanged != tc.aChange {
				t.Fatalf("aChanged = %v, want %v", aChanged, tc.aChange)
			}
			if got := dst.Element("rl").(*Resistor).R; got != p.r {
				t.Fatalf("rl.R = %g, want %g", got, p.r)
			}
			if got := dst.Element("cl").(*Capacitor).C; got != p.c {
				t.Fatalf("cl.C = %g, want %g", got, p.c)
			}
			if got := dst.Element("m2").(*MOSFET).Model; got != p.model {
				t.Fatalf("m2.Model = %+v, want %+v", got, p.model)
			}
			if got := dst.Element("vin").(*VSource).W; got != p.vin {
				t.Fatalf("vin.W = %v, want %v", got, p.vin)
			}
		})
	}
}
