package macros

import (
	"context"
	"math"
	"testing"

	"repro/internal/defectsim"
	"repro/internal/faults"
	"repro/internal/signature"
)

func TestComparatorFaultFreeDecisions(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	opt := RespondOpts{Var: Nominal()}
	lo, err := m.measure(context.Background(), vinLow, nil, opt, 0, &cmpSession{})
	if err != nil {
		t.Fatal(err)
	}
	if lo.failed {
		t.Fatal("fault-free transient failed")
	}
	if lo.decision != 0 {
		t.Fatalf("decision(vin<vref) = %d, want 0", lo.decision)
	}
	hi, err := m.measure(context.Background(), vinHigh, nil, opt, 0, &cmpSession{})
	if err != nil {
		t.Fatal(err)
	}
	if hi.decision != 1 {
		t.Fatalf("decision(vin>vref) = %d, want 1", hi.decision)
	}
	if lo.clockDeviant || hi.clockDeviant {
		t.Fatal("fault-free clocks must not deviate")
	}
	// Class-A slice draws bias-scale current; sampling adds the leak.
	if lo.ivdd[1] < 20e-6 || lo.ivdd[1] > 2e-3 {
		t.Fatalf("amplify-phase slice current = %g", lo.ivdd[1])
	}
	if lo.ivdd[0] < lo.ivdd[1] {
		t.Fatalf("sampling current %g should exceed amplify %g (flipflop leak)", lo.ivdd[0], lo.ivdd[1])
	}
	// Digital supply is quiescent outside switching.
	if math.Abs(lo.iddq[1]) > 1e-6 {
		t.Fatalf("IDDQ = %g, want ~0", lo.iddq[1])
	}
}

func TestComparatorSmallInputResolved(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	opt := RespondOpts{Var: Nominal()}
	// 4 mV above the design trip point must resolve to 1; 4 mV below
	// to 0 (the trip point includes the systematic charge-injection
	// offset, as in silicon).
	nomOff, err := m.nominalOffset(context.Background(), false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	trip := m.VRef + nomOff
	up, failed, err := m.decide(context.Background(), trip+4e-3, nil, opt, 0, &cmpSession{})
	if err != nil || failed {
		t.Fatalf("up: %v failed=%v", err, failed)
	}
	if up != 1 {
		t.Fatalf("decision(vref+4mV) = %d", up)
	}
	dn, failed, err := m.decide(context.Background(), trip-4e-3, nil, opt, 0, &cmpSession{})
	if err != nil || failed {
		t.Fatal("down failed")
	}
	if dn != 0 {
		t.Fatalf("decision(vref-4mV) = %d", dn)
	}
}

func TestComparatorFaultFreeResponse(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	resp, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigNone {
		t.Fatalf("fault-free voltage signature = %v (offset %.4g)", resp.Voltage, resp.OffsetV)
	}
	if math.Abs(resp.OffsetV) > DefaultVehicle().OffsetLimit() {
		t.Fatalf("fault-free offset = %g", resp.OffsetV)
	}
	if len(resp.Currents) != 22 {
		t.Fatalf("measurement count = %d, want 22", len(resp.Currents))
	}
}

func TestComparatorDfTRemovesLeak(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	pre, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	post, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal(), DfT: true, CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	dropped := pre.Currents["slice.ivdd.samp.lo"] - post.Currents["slice.ivdd.samp.lo"]
	if dropped < 0.5*FFLeakNominal {
		t.Fatalf("DfT must remove the sampling leak; dropped %g", dropped)
	}
}

func TestComparatorStuckFault(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	// A low-ohmic short from o1 to vss keeps o1 low: q reads 0, out
	// stuck high.
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"o1", "vss"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigStuck && resp.Voltage != signature.VSigMixed {
		t.Fatalf("o1-vss short signature = %v, want stuck/mixed", resp.Voltage)
	}
}

func TestComparatorSupplyShortDrawsCurrent(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	// A metal short across the slice supply rails: the canonical
	// massive-IVdd defect.
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"vdda", "vss"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Currents["slice.ivdd.latch.hi"] - nom.Currents["slice.ivdd.latch.hi"]
	if d < 0.1 {
		t.Fatalf("rail short current delta = %g, want huge", d)
	}
}

func TestComparatorClockShortRaisesIDDQ(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	// clk1-clk2 short: the two clock buffers fight in every phase.
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"clk1", "clk2"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, ph := range phaseNames {
		if d := resp.Currents["iddq."+ph.name+".lo"] - nom.Currents["iddq."+ph.name+".lo"]; d > worst {
			worst = d
		}
	}
	if worst < 100e-6 {
		t.Fatalf("clock short IDDQ delta = %g, want > 100 µA", worst)
	}
}

func TestComparatorBiasBiasShortSmallEffect(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	// The paper's hard case: a short between the two similar bias lines
	// barely changes anything.
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"vbn1", "vbn2"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage == signature.VSigStuck || resp.Voltage == signature.VSigMixed {
		t.Fatalf("bias-bias short must not break the comparator: %v", resp.Voltage)
	}
	nom, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	d := math.Abs(resp.Currents["slice.ivdd.amp.lo"] - nom.Currents["slice.ivdd.amp.lo"])
	if d > 50e-6 {
		t.Fatalf("bias-bias short slice delta = %g, want tiny (< 50 µA)", d)
	}
}

func TestComparatorLayoutConnectivity(t *testing.T) {
	for _, dft := range []bool{false, true} {
		cell := comparatorLayout(dft)
		comps := defectsim.CheckConnectivity(cell)
		for net, n := range comps {
			if n != 1 {
				t.Errorf("dft=%v: net %q has %d components", dft, net, n)
			}
		}
		if cell.Area() <= 0 {
			t.Fatal("empty layout")
		}
	}
}

func TestComparatorLayoutDfTReordersBias(t *testing.T) {
	pre := comparatorLayout(false)
	post := comparatorLayout(true)
	preX := biasLineX(t, pre)
	postX := biasLineX(t, post)
	if !(preX["vbn1"] < preX["vbn2"] && preX["vbn2"] < preX["vbp1"]) {
		t.Fatalf("pre-DfT order wrong: %v", preX)
	}
	if !(postX["vbn1"] < postX["vbp1"] && postX["vbp1"] < postX["vbn2"]) {
		t.Fatalf("post-DfT order wrong: %v", postX)
	}
}
