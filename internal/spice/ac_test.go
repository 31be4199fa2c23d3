package spice

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/netlist"
)

func TestACRCLowpass(t *testing.T) {
	// R = 1 kΩ, C = 1 µF: pole at 1/(2πRC) ≈ 159.15 Hz.
	b := netlist.NewBuilder()
	b.Vsrc("vin", "in", "0", netlist.DC(0))
	b.R("r1", "in", "out", 1000)
	b.Cap("c1", "out", "0", 1e-6)
	e := New(b.C, DefaultOptions())
	op, err := e.OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fp := 1 / (2 * math.Pi * 1000 * 1e-6)
	sols, err := e.AC(op, "vin", []float64{fp / 100, fp, fp * 100})
	if err != nil {
		t.Fatal(err)
	}
	// Passband: |H| ≈ 1.
	if m := cmplx.Abs(sols[0].V("out")); math.Abs(m-1) > 0.01 {
		t.Fatalf("passband |H| = %g", m)
	}
	// At the pole: |H| = 1/√2, phase -45°.
	h := sols[1].V("out")
	if math.Abs(cmplx.Abs(h)-1/math.Sqrt2) > 0.01 {
		t.Fatalf("|H(fp)| = %g", cmplx.Abs(h))
	}
	if ph := cmplx.Phase(h) * 180 / math.Pi; math.Abs(ph+45) > 1 {
		t.Fatalf("phase(fp) = %g°", ph)
	}
	// Two decades above: -40 dB.
	if db := sols[2].MagDB("out"); math.Abs(db+40) > 0.5 {
		t.Fatalf("|H(100fp)| = %g dB", db)
	}
}

func TestACCommonSourceGain(t *testing.T) {
	// Common-source NMOS with resistor load: |gain| = gm·(RL∥ro).
	b := netlist.NewBuilder()
	b.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	b.Vsrc("vin", "in", "0", netlist.DC(1.2))
	b.R("rl", "vdd", "out", 50e3)
	mos := b.NMOS("m1", "out", "in", "0", 10, 1)
	e := New(b.C, DefaultOptions())
	op, err := e.OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sols, err := e.AC(op, "vin", []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	gain := cmplx.Abs(sols[0].V("out"))
	// Expected gm from the model at the operating point.
	vout := op.V("out")
	const h = 1e-6
	gm := (mos.Ids(vout, 1.2+h, 0, 0) - mos.Ids(vout, 1.2, 0, 0)) / h
	gds := (mos.Ids(vout+h, 1.2, 0, 0) - mos.Ids(vout, 1.2, 0, 0)) / h
	want := gm / (1/50e3 + gds)
	if math.Abs(gain-want)/want > 0.05 {
		t.Fatalf("gain = %g, want ≈%g", gain, want)
	}
	// Inverting stage: phase ≈ 180° at low frequency.
	if ph := math.Abs(cmplx.Phase(sols[0].V("out"))) * 180 / math.Pi; math.Abs(ph-180) > 5 {
		t.Fatalf("phase = %g", ph)
	}
}

func TestACSourceQuiescing(t *testing.T) {
	// Two sources; only the designated one excites.
	b := netlist.NewBuilder()
	b.Vsrc("v1", "a", "0", netlist.DC(1))
	b.Vsrc("v2", "b", "0", netlist.DC(2))
	b.R("r1", "a", "x", 1000)
	b.R("r2", "b", "x", 1000)
	b.R("r3", "x", "0", 1000)
	e := New(b.C, DefaultOptions())
	op, err := e.OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sols, err := e.AC(op, "v1", []float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	// Superposition: x = 1 · (r2∥r3)/(r1 + r2∥r3) = 1/3.
	if m := cmplx.Abs(sols[0].V("x")); math.Abs(m-1.0/3) > 1e-6 {
		t.Fatalf("x = %g, want 1/3", m)
	}
	// v2's node sees zero AC (shorted source).
	if m := cmplx.Abs(sols[0].V("b")); m > 1e-9 {
		t.Fatalf("quiesced source node = %g", m)
	}
}

func TestACUnknownSource(t *testing.T) {
	b := netlist.NewBuilder()
	b.Vsrc("v1", "a", "0", netlist.DC(1))
	b.R("r1", "a", "0", 1)
	e := New(b.C, DefaultOptions())
	op, _ := e.OP(context.Background())
	if _, err := e.AC(op, "nope", []float64{1}); err == nil {
		t.Fatal("unknown AC source must error")
	}
}

func TestLogSpace(t *testing.T) {
	fs := LogSpace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(fs[i]-want[i])/want[i] > 1e-9 {
			t.Fatalf("LogSpace = %v", fs)
		}
	}
	if got := LogSpace(5, 10, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate LogSpace = %v", got)
	}
}

func TestACCurrentSourceExcitation(t *testing.T) {
	// A 1 A AC current source into R gives V = R.
	b := netlist.NewBuilder()
	b.Isrc("i1", "0", "x", netlist.DC(0))
	b.R("r1", "x", "0", 123)
	e := New(b.C, DefaultOptions())
	op, err := e.OP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sols, err := e.AC(op, "i1", []float64{50})
	if err != nil {
		t.Fatal(err)
	}
	if m := cmplx.Abs(sols[0].V("x")); math.Abs(m-123) > 1e-6 {
		t.Fatalf("x = %g, want 123", m)
	}
}
