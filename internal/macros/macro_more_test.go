package macros

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/digital"
	"repro/internal/faults"
	"repro/internal/signature"
)

func TestDecoderExhaustiveIdentity(t *testing.T) {
	for _, bits := range []int{MinBits, 6, DefaultBits} {
		veh, err := NewVehicle(bits)
		if err != nil {
			t.Fatal(err)
		}
		codes, iddq := decodeLevels(t, NewDecoder(veh), faultNone())
		if len(codes) != veh.Comparators() || iddq {
			t.Fatalf("%d bits: %d levels, iddq=%v", bits, len(codes), iddq)
		}
		for k, code := range codes {
			if code != k {
				t.Fatalf("%d bits: level %d decodes to %d", bits, k, code)
			}
		}
	}
}

func TestDecoderOpenMapsToStuck(t *testing.T) {
	m := NewDecoder(DefaultVehicle())
	f := &faults.Fault{Kind: faults.Open, Nets: []string{"h100"},
		FarTerminals: []faults.Terminal{{Device: "b2_l0_0g", Net: "h100"}}}
	df, ok := m.mapFault(f)
	if !ok || df.Net != "h100" {
		t.Fatalf("mapFault open = %+v ok=%v", df, ok)
	}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	// A one-hot net stuck either way corrupts at least one code path.
	if df.Val && !resp.MissingCode {
		t.Fatal("h stuck-1 must corrupt codes")
	}
}

func TestDecoderJunctionPinholeIDDQOnly(t *testing.T) {
	m := NewDecoder(DefaultVehicle())
	f := &faults.Fault{Kind: faults.JunctionPinholeKind, Nets: []string{"h005", "vss"}}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MissingCode {
		t.Fatal("junction pinhole must not change logic")
	}
	if resp.Currents["iddq.dc"] == 0 {
		t.Fatal("junction pinhole must raise IDDQ")
	}
}

func TestComparatorGOSWorstCase(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	f := &faults.Fault{Kind: faults.GOSPinhole, Device: "m1"}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	// The worst case must be chosen among the three variants; a gate
	// pinhole on the diff pair input should at minimum disturb the
	// offset (the sampled node leaks through 2 kΩ during comparison).
	if resp.Voltage == signature.VSigNone && math.Abs(resp.OffsetV) < 1e-4 {
		// Accept: chosen variant is genuinely hard to detect — but
		// then at least a current deviation should exist vs nominal.
		nom, err := m.Respond(context.Background(), nil, RespondOpts{Var: Nominal(), CurrentsOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for k, v := range resp.Currents {
			if d := math.Abs(v - nom.Currents[k]); d > worst {
				worst = d
			}
		}
		if worst < 1e-6 {
			t.Fatalf("GOS on m1 left no trace at all (worst Δ=%g)", worst)
		}
	}
}

func TestClockgenClockValueSignature(t *testing.T) {
	m := NewClockgen(DefaultVehicle())
	// A high-ohmic load on clk2 degrades its level without killing it:
	// 2 kΩ to ground vs the big driver ⇒ a sagged high level.
	f := &faults.Fault{Kind: faults.ThickOxPinhole, Nets: []string{"clk2", "vss"}}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Voltage != signature.VSigClock && resp.Voltage != signature.VSigStuck {
		t.Fatalf("clk2 level fault signature = %v", resp.Voltage)
	}
	// The driver fights the pinhole when clk2 is high: IDDQ in state 1.
	if resp.Currents["iddq.s1"] < 1e-4 {
		t.Fatalf("iddq.s1 = %g, want mA scale", resp.Currents["iddq.s1"])
	}
}

func TestComparatorVinVrefShortIinput(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"vin", "vref"}, Res: 0.2}
	resp, err := m.Respond(context.Background(), f, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// At the extreme inputs, vin and vref differ by 1.5 V: the short
	// draws amps through the input terminals.
	if resp.Currents["iin.vin.lo"] < 0.1 {
		t.Fatalf("iin.vin.lo = %g, want huge", resp.Currents["iin.vin.lo"])
	}
}

func TestVariationDrawBounds(t *testing.T) {
	v := Nominal()
	if v.KPScale != 1 || v.VddScale != 1 || v.RhoScale != 1 || v.TempC != 27 {
		t.Fatalf("nominal = %+v", v)
	}
	if v.FFLeakA != FFLeakNominal {
		t.Fatal("nominal leak")
	}
	// Draw: statistically sane.
	rng := newTestRng()
	var leakSum float64
	for i := 0; i < 500; i++ {
		d := Draw(rng)
		if d.TempC < TempLo || d.TempC > TempHi {
			t.Fatalf("temp out of range: %g", d.TempC)
		}
		if d.FFLeakA < 0 {
			t.Fatal("negative leak")
		}
		leakSum += d.FFLeakA
	}
	mean := leakSum / 500
	if math.Abs(mean-FFLeakNominal) > 5e-6 {
		t.Fatalf("leak mean = %g", mean)
	}
}

func TestLadderTapName(t *testing.T) {
	if tapName(0) != "t000" || tapName(256) != "t256" {
		t.Fatalf("tapName: %s %s", tapName(0), tapName(256))
	}
}

func TestMacroInterfaces(t *testing.T) {
	ms := []Macro{NewComparator(DefaultVehicle()), NewLadder(DefaultVehicle()), NewBiasgen(DefaultVehicle()), NewClockgen(DefaultVehicle()), NewDecoder(DefaultVehicle())}
	names := map[string]bool{}
	for _, m := range ms {
		if m.Name() == "" || names[m.Name()] {
			t.Fatalf("bad/duplicate macro name %q", m.Name())
		}
		names[m.Name()] = true
		if m.Count() < 1 {
			t.Fatalf("%s count = %d", m.Name(), m.Count())
		}
		cell := m.Layout(false)
		if cell.Area() <= 0 || len(cell.Shapes) == 0 {
			t.Fatalf("%s layout empty", m.Name())
		}
		if len(cell.Ports) == 0 {
			t.Fatalf("%s has no ports", m.Name())
		}
	}
	// The comparator array dominates the chip area (paper: "most of the
	// ADC area is covered by these cells").
	cmpArea := float64(DefaultVehicle().Comparators()) * NewComparator(DefaultVehicle()).Layout(false).Area()
	var rest float64
	for _, m := range ms[1:] {
		rest += float64(m.Count()) * m.Layout(false).Area()
	}
	if cmpArea < rest {
		t.Fatalf("comparator array area %.0f must dominate the rest %.0f", cmpArea, rest)
	}
}

func TestTestbenchBuilders(t *testing.T) {
	cmp := BuildComparatorTestbench(RespondOpts{Var: Nominal()})
	if cmp.C.Element("m1") == nil || cmp.C.Element("bg.mn1") == nil {
		t.Fatal("comparator testbench incomplete")
	}
	clk := BuildClockgenTestbench(Nominal())
	if clk.C.Element("cg.mp1_0") == nil {
		t.Fatal("clockgen testbench incomplete")
	}
	lad := BuildLadderTestbench(Nominal())
	if lad.C.Element("r000") == nil || lad.C.Element("vrefhi") == nil {
		t.Fatal("ladder testbench incomplete")
	}
}

// TestDecoderLevelsMatchOneLaneEval checks the all-levels sweep lane by
// lane: under each fault, the code of input level k must equal the
// outputs of a one-lane Eval of level k's thermometer code, and the
// sweep's IDDQ flag must be the OR of the per-level ones. At 4 and 5
// bits the faults are every net stuck at 0 and at 1, each h_i–h_{i+1}
// bridge and a gate-oxide-short bridge; at 8 bits (four words of lanes)
// the same kinds run at the word boundaries only, because a one-lane
// Eval of the full-size network costs a 1 500-entry value map.
func TestDecoderLevelsMatchOneLaneEval(t *testing.T) {
	bridge := func(i int) digital.Fault {
		return digital.Fault{Kind: digital.Bridge, Net: fmt.Sprintf("h%03d", i), Net2: fmt.Sprintf("h%03d", i+1)}
	}
	stuck := func(net string) []digital.Fault {
		return []digital.Fault{{Kind: digital.StuckAt, Net: net}, {Kind: digital.StuckAt, Net: net, Val: true}}
	}
	for _, bits := range []int{MinBits, 5, DefaultBits} {
		veh, err := NewVehicle(bits)
		if err != nil {
			t.Fatal(err)
		}
		m := NewDecoder(veh)
		gos, ok := m.mapFault(&faults.Fault{Kind: faults.GOSPinhole, Device: "and005.n"})
		if !ok || gos.Kind != digital.Bridge {
			t.Fatalf("GOS fault maps to %+v", gos)
		}
		fs := []digital.Fault{gos}
		if bits == DefaultBits {
			fs = append(fs, bridge(63), bridge(64), bridge(127))
			fs = append(fs, stuck("h064")...)
		} else {
			for i := 1; i < veh.DecoderInputs(); i++ {
				fs = append(fs, bridge(i))
			}
			for _, n := range m.ckt.Nets() {
				fs = append(fs, stuck(n)...)
			}
		}
		levels := make([]map[string]bool, veh.Comparators())
		for k := range levels {
			levels[k] = map[string]bool{}
			for i := 1; i <= veh.DecoderInputs(); i++ {
				levels[k][tnet(i)] = i <= k
			}
		}
		for _, f := range fs {
			codes, iddq := decodeLevels(t, m, f)
			wantIDDQ := false
			for k, code := range codes {
				res, err := m.ckt.Eval(levels[k], f)
				if err != nil {
					t.Fatal(err)
				}
				want := 0
				for bit := 0; bit < bits; bit++ {
					if res.Values[fmt.Sprintf("b%d", bit)] {
						want |= 1 << bit
					}
				}
				if code != want {
					t.Fatalf("%d bits, %+v: level %d decodes to %d, one-lane Eval to %d", bits, f, k, code, want)
				}
				wantIDDQ = wantIDDQ || res.IDDQ
			}
			if iddq != wantIDDQ {
				t.Fatalf("%d bits, %+v: sweep IDDQ %v, per-level OR %v", bits, f, iddq, wantIDDQ)
			}
		}
	}
}
