package netlist

import (
	"math"
	"testing"
)

// fakeSystem collects stamps into dense structures for inspection.
type fakeSystem struct {
	n   int
	a   []float64 // row-major n×n
	b   []float64
	sol []float64
}

func newFake(n int, sol []float64) *fakeSystem {
	return &fakeSystem{n: n, a: make([]float64, n*n), b: make([]float64, n), sol: sol}
}

// at returns matrix entry (i, j).
func (f *fakeSystem) at(i, j int) float64 { return f.a[i*f.n+j] }

func (f *fakeSystem) ctx(mode StampMode, dt float64, prev []float64) *Context {
	return &Context{
		Mode:       mode,
		Dt:         dt,
		XDense:     f.sol,
		XPrevDense: prev,
		SrcScale:   1,
		ADense:     f.a,
		BDense:     f.b,
		N:          f.n,
	}
}

func TestStampG(t *testing.T) {
	f := newFake(2, []float64{0, 0})
	ctx := f.ctx(DCOp, 0, nil)
	ctx.StampG(1, 2, 0.5) // nodes 1,2 -> indices 0,1
	if f.at(0, 0) != 0.5 || f.at(1, 1) != 0.5 || f.at(0, 1) != -0.5 || f.at(1, 0) != -0.5 {
		t.Fatalf("G stamp: %v", f.a)
	}
	// Against ground: only the diagonal.
	f2 := newFake(1, []float64{0})
	f2.ctx(DCOp, 0, nil).StampG(1, Ground, 2)
	if f2.at(0, 0) != 2 {
		t.Fatalf("ground G stamp: %v", f2.a)
	}
}

func TestStampI(t *testing.T) {
	f := newFake(2, []float64{0, 0})
	f.ctx(DCOp, 0, nil).StampI(1, 2, 1e-3) // current leaves node 1, enters node 2
	if f.b[0] != -1e-3 || f.b[1] != 1e-3 {
		t.Fatalf("I stamp: %v", f.b)
	}
}

func TestStampVS(t *testing.T) {
	f := newFake(3, []float64{0, 0, 0}) // 2 nodes + 1 aux
	f.ctx(DCOp, 0, nil).StampVS(1, 2, 2, 5)
	if f.at(0, 2) != 1 || f.at(2, 0) != 1 || f.at(1, 2) != -1 || f.at(2, 1) != -1 {
		t.Fatalf("VS incidence: %v", f.a)
	}
	if f.b[2] != 5 {
		t.Fatalf("VS rhs: %v", f.b)
	}
}

func TestStampTransG(t *testing.T) {
	f := newFake(4, make([]float64, 4))
	f.ctx(DCOp, 0, nil).StampTransG(1, 2, 3, 4, 1e-3)
	if f.at(0, 2) != 1e-3 || f.at(0, 3) != -1e-3 || f.at(1, 2) != -1e-3 || f.at(1, 3) != 1e-3 {
		t.Fatalf("transconductance stamp: %v", f.a)
	}
}

func TestCapacitorStampModes(t *testing.T) {
	c := &Capacitor{Label: "c", A: 1, B: Ground, C: 1e-9}
	// DC: no contribution.
	f := newFake(1, []float64{3})
	c.Stamp(f.ctx(DCOp, 0, []float64{3}), 0)
	if f.at(0, 0) != 0 || f.b[0] != 0 {
		t.Fatal("cap must be open in DC")
	}
	// Transient: g = C/dt and history current g·vPrev.
	f2 := newFake(1, []float64{3})
	c.Stamp(f2.ctx(Transient, 1e-6, []float64{2}), 0)
	g := 1e-9 / 1e-6
	if math.Abs(f2.at(0, 0)-g) > 1e-18 {
		t.Fatalf("cap conductance: %g", f2.at(0, 0))
	}
	if math.Abs(f2.b[0]-g*2) > 1e-18 {
		t.Fatalf("cap history: %g", f2.b[0])
	}
}

func TestResistorStamp(t *testing.T) {
	r := &Resistor{Label: "r", A: 1, B: Ground, R: 100}
	f := newFake(1, []float64{0})
	r.Stamp(f.ctx(DCOp, 0, nil), 0)
	if math.Abs(f.at(0, 0)-0.01) > 1e-15 {
		t.Fatalf("R stamp: %g", f.at(0, 0))
	}
	if _, lin := Element(r).(LinearElement); !lin || r.NumAux() != 0 || r.Name() != "r" {
		t.Fatal("resistor metadata")
	}
}

func TestISourceStampScale(t *testing.T) {
	s := I("i", 1, 2, 2e-3)
	f := newFake(2, []float64{0, 0})
	ctx := f.ctx(DCOp, 0, nil)
	ctx.SrcScale = 0.5
	s.Stamp(ctx, 0)
	if f.b[0] != -1e-3 || f.b[1] != 1e-3 {
		t.Fatalf("scaled I stamp: %v", f.b)
	}
}

func TestVSourceStampScaleAndHelper(t *testing.T) {
	v := V("v", 1, Ground, 4)
	if _, lin := Element(v).(LinearElement); v.NumAux() != 1 || !lin {
		t.Fatal("vsource metadata")
	}
	f := newFake(2, []float64{0, 0}) // node1 + aux
	ctx := f.ctx(DCOp, 0, nil)
	ctx.SrcScale = 0.25
	v.Stamp(ctx, 1)
	if f.b[1] != 1 {
		t.Fatalf("scaled VS rhs: %v", f.b)
	}
}

// TestMOSFETStampConsistency checks the Norton companion: with the
// linearisation point exactly at the solution, A·x - b reproduces the
// device current at each terminal.
func TestMOSFETStampConsistency(t *testing.T) {
	m := &MOSFET{Label: "m", D: 1, G: 2, S: Ground, B: Ground, Model: NMOS1(), W: 10e-6, L: 1e-6}
	x := []float64{3.0, 2.0} // vd=3, vg=2
	f := newFake(2, x)
	m.Stamp(f.ctx(DCOp, 0, nil), 0)
	// KCL residual at the drain row: A[0]·x - b[0] should equal the
	// channel current entering the matrix (ids).
	res := f.at(0, 0)*x[0] + f.at(0, 1)*x[1] - f.b[0]
	ids := m.Ids(3, 2, 0, 0)
	if math.Abs(res-ids) > 1e-9 {
		t.Fatalf("drain residual %g vs ids %g", res, ids)
	}
}

// TestMOSFETStampGmin verifies the convergence-aid leak is applied.
func TestMOSFETStampGmin(t *testing.T) {
	m := &MOSFET{Label: "m", D: 1, G: 2, S: Ground, B: Ground, Model: NMOS1(), W: 10e-6, L: 1e-6}
	f := newFake(2, []float64{0, 0})
	ctx := f.ctx(DCOp, 0, nil)
	ctx.Gmin = 1e-9
	m.Stamp(ctx, 0)
	if f.at(0, 0) < 1e-9 {
		t.Fatal("gmin missing at drain")
	}
}

func TestACStampRC(t *testing.T) {
	// Direct AC stamps: R in parallel with C to ground.
	r := &Resistor{Label: "r", A: 1, B: Ground, R: 1000}
	c := &Capacitor{Label: "c", A: 1, B: Ground, C: 1e-9}
	ctx := &ACContext{
		Omega:  2 * math.Pi * 1e6,
		ADense: make([]complex128, 1),
		BDense: make([]complex128, 1),
		N:      1,
	}
	r.StampAC(ctx, 0)
	c.StampAC(ctx, 0)
	if aReal := real(ctx.ADense[0]); math.Abs(aReal-1e-3) > 1e-12 {
		t.Fatalf("AC real part: %g", aReal)
	}
	if aImag := imag(ctx.ADense[0]); math.Abs(aImag-2*math.Pi*1e6*1e-9) > 1e-12 {
		t.Fatalf("AC imag part: %g", aImag)
	}
}

func TestACStampSourceSelection(t *testing.T) {
	v := V("vx", 1, Ground, 5)
	ctx := &ACContext{
		Source: "other",
		ADense: make([]complex128, 4),
		BDense: make([]complex128, 2),
		N:      2,
	}
	v.StampAC(ctx, 1)
	if ctx.BDense[1] != 0 {
		t.Fatal("non-selected source must be quiesced")
	}
	ctx.Source = "vx"
	v.StampAC(ctx, 1)
	if ctx.BDense[1] != 1 {
		t.Fatalf("selected source rhs = %v", ctx.BDense[1])
	}
}

// TestStampBMatchesStampRHS pins the contract the engine's
// cached-recording solve relies on: a linear element's StampB records
// exactly the right-hand-side ops of its Stamp, in order and bit for
// bit, and no matrix op. Recording contexts carry no iterate view, so a
// linear stamp that read X would panic here too.
func TestStampBMatchesStampRHS(t *testing.T) {
	if _, lin := Element(&MOSFET{}).(LinearElement); lin {
		t.Fatal("a MOSFET must not be a LinearElement")
	}
	pwl := PWL{T: []float64{0, 2e-9, 6e-9}, V: []float64{0.4, 1.7, 4.9}}
	prev := []float64{0.7, -0.3, 1e-4} // node 1, node 2, aux
	cases := []struct {
		name               string
		el                 LinearElement
		mode               StampMode
		time, dt, srcScale float64
		aux, wantB         int
	}{
		{"resistor", &Resistor{Label: "r", A: 1, B: 2, R: 470}, DCOp, 0, 0, 1, 0, 0},
		{"capacitor-dc", &Capacitor{Label: "c", A: 1, B: 2, C: 3e-13}, DCOp, 0, 0, 1, 0, 0},
		{"capacitor-transient", &Capacitor{Label: "c", A: 1, B: 2, C: 3e-13}, Transient, 4e-9, 0.5e-9, 1, 0, 2},
		{"vsource-dc", V("v", 1, 2, 3.3), DCOp, 0, 0, 1, 2, 1},
		{"vsource-pwl-mid-segment", &VSource{Label: "v", P: 1, N: Ground, W: pwl}, Transient, 3.1e-9, 0.5e-9, 1, 2, 1},
		{"vsource-src-scale", &VSource{Label: "v", P: 2, N: 1, W: pwl}, DCOp, 3.1e-9, 0, 0.35, 2, 1},
		{"isource", I("i", 1, 2, 2e-3), DCOp, 0, 0, 1, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			record := func(stamp func(*Context, int)) Recording {
				var rec Recording
				ctx := &Context{Mode: tc.mode, Time: tc.time, Dt: tc.dt,
					SrcScale: tc.srcScale, Gmin: 1e-12, XPrevDense: prev, N: 3, Rec: &rec}
				stamp(ctx, tc.aux)
				return rec
			}
			full, bOnly := record(tc.el.Stamp), record(tc.el.StampB)
			if len(bOnly.A) != 0 {
				t.Fatalf("StampB recorded %d matrix ops", len(bOnly.A))
			}
			if len(full.B) != tc.wantB || len(bOnly.B) != len(full.B) {
				t.Fatalf("B ops: Stamp %d, StampB %d, want %d", len(full.B), len(bOnly.B), tc.wantB)
			}
			for i, op := range full.B {
				got := bOnly.B[i]
				if got.K != op.K || math.Float64bits(got.V) != math.Float64bits(op.V) {
					t.Fatalf("B op %d: StampB %+v, Stamp %+v", i, got, op)
				}
			}
		})
	}
}
