package macros

import (
	"context"
	"math"
	"testing"

	"repro/internal/defectsim"
	"repro/internal/faults"
	"repro/internal/signature"
)

// --- Ladder ---

func TestLadderFaultFree(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	resp, err := l.Respond(context.Background(), nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigNone || resp.MissingCode {
		t.Fatalf("fault-free ladder: %v missing=%v", resp.Voltage, resp.MissingCode)
	}
	// String current = 2 V / 2048 Ω ≈ 0.98 mA at both terminals.
	want := (VRefHi - VRefLo) / (DefaultVehicle().RSeg() * float64(DefaultVehicle().LadderSegments()))
	for _, k := range []string{"iin.vref.hi", "iin.vref.lo"} {
		if got := resp.Currents[k]; math.Abs(got-want)/want > 0.02 {
			t.Fatalf("%s = %g, want ≈%g", k, got, want)
		}
	}
}

func TestLadderRhoScaleRatiometric(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	v := Nominal()
	v.RhoScale = 1.05
	resp, err := l.Respond(context.Background(), nil, RespondOpts{Var: v})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform rho change shifts current but no tap deviation.
	if resp.MissingCode || resp.OffsetV > 1e-9 {
		t.Fatalf("uniform rho must be ratiometric: off=%g", resp.OffsetV)
	}
}

func TestLadderAdjacentTapShortVoltageOnly(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	f := &faults.Fault{Kind: faults.Short, Nets: []string{tapName(100), tapName(101)}, Res: 0.2}
	resp, err := l.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.MissingCode {
		t.Fatal("adjacent-tap short must kill a code")
	}
	// Current change is 1 segment of 256: ~0.4 %, tiny.
	nom := (VRefHi - VRefLo) / (DefaultVehicle().RSeg() * float64(DefaultVehicle().LadderSegments()))
	if d := math.Abs(resp.Currents["iin.vref.hi"]-nom) / nom; d > 0.01 {
		t.Fatalf("adjacent short current delta = %.3f%%", d*100)
	}
}

func TestLadderCrossRowShortBigCurrent(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	// Taps 32 apart (vertically adjacent serpentine rows) bypass 32
	// segments: a 12.5 % resistance drop.
	f := &faults.Fault{Kind: faults.Short, Nets: []string{tapName(96), tapName(128)}, Res: 0.2}
	resp, err := l.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	nom := (VRefHi - VRefLo) / (DefaultVehicle().RSeg() * float64(DefaultVehicle().LadderSegments()))
	if d := (resp.Currents["iin.vref.hi"] - nom) / nom; d < 0.10 {
		t.Fatalf("cross-row short current delta = %.3f%%, want > 10%%", d*100)
	}
	if !resp.MissingCode {
		t.Fatal("collapsing 32 taps must kill codes")
	}
}

func TestLadderOpenKillsCurrent(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	f := &faults.Fault{
		Kind: faults.Open, Nets: []string{tapName(50)},
		FarTerminals: []faults.Terminal{{Device: "r050", Net: tapName(50)}},
	}
	resp, err := l.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	nom := (VRefHi - VRefLo) / (DefaultVehicle().RSeg() * float64(DefaultVehicle().LadderSegments()))
	if resp.Currents["iin.vref.hi"] > nom/2 {
		t.Fatalf("open string current = %g, want collapsed", resp.Currents["iin.vref.hi"])
	}
	if !resp.MissingCode {
		t.Fatal("open string must kill codes")
	}
}

func TestLadderLayoutConnectivity(t *testing.T) {
	cell := NewLadder(DefaultVehicle()).Layout(false)
	comps := defectsim.CheckConnectivity(cell)
	for net, n := range comps {
		if n != 1 {
			t.Errorf("net %q has %d components", net, n)
		}
	}
	if len(comps) < DefaultVehicle().LadderSegments() {
		t.Fatalf("only %d nets in ladder layout", len(comps))
	}
}

// --- Clock generator ---

func TestClockgenFaultFree(t *testing.T) {
	m := NewClockgen(DefaultVehicle())
	resp, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigNone || resp.MissingCode {
		t.Fatalf("fault-free clockgen: %v", resp.Voltage)
	}
	for si := range cgStates {
		k := "iddq.s" + string(rune('0'+si))
		if iq := math.Abs(resp.Currents[k]); iq > 1e-7 {
			t.Fatalf("%s = %g, want quiescent", k, iq)
		}
	}
}

func TestClockgenOutputRailShortStuck(t *testing.T) {
	m := NewClockgen(DefaultVehicle())
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"clk1", "vss"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigStuck || !resp.MissingCode {
		t.Fatalf("clk1-vss short: %v missing=%v", resp.Voltage, resp.MissingCode)
	}
	// The driver fights the short in the clk1-high state: big IDDQ.
	if resp.Currents["iddq.s0"] < 1e-4 {
		t.Fatalf("IDDQ = %g, want mA-scale", resp.Currents["iddq.s0"])
	}
}

func TestClockgenInternalBridgeIDDQ(t *testing.T) {
	m := NewClockgen(DefaultVehicle())
	// Bridge two internal chain nodes of different phases: they carry
	// opposite values in the one-hot states.
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"cg1_0", "cg2_0"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for si := range cgStates {
		if iq := resp.Currents["iddq.s"+string(rune('0'+si))]; iq > worst {
			worst = iq
		}
	}
	if worst < 1e-4 {
		t.Fatalf("bridge IDDQ = %g, want elevated", worst)
	}
}

func TestClockgenLayoutConnectivity(t *testing.T) {
	cell := NewClockgen(DefaultVehicle()).Layout(false)
	for net, n := range defectsim.CheckConnectivity(cell) {
		if n != 1 {
			t.Errorf("net %q has %d components", net, n)
		}
	}
}

// --- Bias generator ---

func TestBiasgenFaultFree(t *testing.T) {
	m := NewBiasgen(DefaultVehicle())
	resp, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigNone {
		t.Fatalf("fault-free biasgen: %v", resp.Voltage)
	}
	if !resp.CommonMode {
		t.Fatal("biasgen responses must be common-mode")
	}
}

func TestBiasgenBiasShortCommonModeUndetectable(t *testing.T) {
	m := NewBiasgen(DefaultVehicle())
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"vbn1", "vbn2"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MissingCode {
		t.Fatal("similar-bias short must not create missing codes (common mode)")
	}
}

func TestBiasgenNPBiasShortDetectable(t *testing.T) {
	m := NewBiasgen(DefaultVehicle())
	// The post-DfT adjacency: vbn1-vbp1 short ties 1.1 V to 3.9 V.
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"vbn1", "vbp1"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Massive disturbance somewhere: bias legs fight and the comparator
	// slice current shifts hard.
	var worst float64
	for k, v := range resp.Currents {
		if d := math.Abs(v - nom.Currents[k]); d > worst {
			worst = d
		}
	}
	if worst < 1e-4 {
		t.Fatalf("n-p bias short worst delta = %g, want big", worst)
	}
}

func TestBiasgenLayout(t *testing.T) {
	for _, dft := range []bool{false, true} {
		cell := NewBiasgen(DefaultVehicle()).Layout(dft)
		for net, n := range defectsim.CheckConnectivity(cell) {
			if n != 1 {
				t.Errorf("dft=%v net %q has %d components", dft, net, n)
			}
		}
	}
	preX := biasLineX(t, NewBiasgen(DefaultVehicle()).Layout(false))
	postX := biasLineX(t, NewBiasgen(DefaultVehicle()).Layout(true))
	if !(preX["vbn1"] < preX["vbn2"] && preX["vbn2"] < preX["vbp1"]) {
		t.Fatalf("pre order: %v", preX)
	}
	if !(postX["vbn1"] < postX["vbp1"] && postX["vbp1"] < postX["vbn2"]) {
		t.Fatalf("post order: %v", postX)
	}
}

// --- Decoder ---

func TestDecoderFaultFreeIdentity(t *testing.T) {
	m := NewDecoder(DefaultVehicle())
	codes, iddq := decodeLevels(t, m, faultNone())
	for _, k := range []int{0, 1, 2, 64, 127, 128, 200, 255} {
		if codes[k] != k {
			t.Fatalf("level %d decodes to %d", k, codes[k])
		}
	}
	if iddq {
		t.Fatal("fault-free decode must be quiescent")
	}
}

func TestDecoderRespondFaultFree(t *testing.T) {
	m := NewDecoder(DefaultVehicle())
	resp, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigNone || resp.MissingCode {
		t.Fatalf("fault-free decoder: %v missing=%v", resp.Voltage, resp.MissingCode)
	}
	if resp.Currents["iddq.dc"] != 0 {
		t.Fatal("fault-free decoder IDDQ must be 0")
	}
}

func TestDecoderStuckInputMissingCode(t *testing.T) {
	m := NewDecoder(DefaultVehicle())
	f := &faults.Fault{Kind: faults.Short, Nets: []string{tnet(100), "vddd"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.MissingCode {
		t.Fatal("stuck thermometer input must kill codes")
	}
	if resp.Currents["iddq.dc"] == 0 {
		t.Fatal("rail short must raise IDDQ")
	}
}

func TestDecoderBridgeIDDQ(t *testing.T) {
	m := NewDecoder(DefaultVehicle())
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"h100", "h101"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Currents["iddq.dc"] == 0 {
		t.Fatal("one-hot bridge must fight at some input")
	}
}

func TestDecoderLayoutHasTracksAndDevices(t *testing.T) {
	m := NewDecoder(DefaultVehicle())
	cell := m.Layout(false)
	if len(cell.Shapes) < 5000 {
		t.Fatalf("decoder layout too small: %d shapes", len(cell.Shapes))
	}
	if !cell.Ports[tnet(1)] || !cell.Ports["b7"] {
		t.Fatal("decoder ports missing")
	}
}

func TestDecoderGateNets(t *testing.T) {
	m := NewDecoder(DefaultVehicle())
	in, out, ok := m.gateNets("inv100.n")
	if !ok || in != tnet(100) || out != "n100" {
		t.Fatalf("gateNets = %q %q %v", in, out, ok)
	}
	if _, _, ok := m.gateNets("nope.x"); ok {
		t.Fatal("unknown device must fail")
	}
}
