package defectsim

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/process"
)

// twoWires builds a cell with two parallel metal1 wires 2 µm apart
// (centres 3 µm apart, width 1).
func twoWires() *layout.Cell {
	b := layout.NewBuilder("wires")
	b.HWire(process.Metal1, "a", 0, 50, 0)
	b.HWire(process.Metal1, "b", 0, 50, 3)
	return b.C
}

func TestExtractBridge(t *testing.T) {
	s := New(twoWires(), process.Default())
	spec := process.DefectSpec{Type: process.ExtraMaterial, Layer: process.Metal1}
	// Big defect between the wires: bridges them.
	f, ok := s.extract(&spec, geom.Disk{C: geom.Point{X: 25, Y: 1.5}, R: 1.6})
	if !ok {
		t.Fatal("expected a short")
	}
	if f.Kind != faults.Short || len(f.Nets) != 2 || f.Nets[0] != "a" || f.Nets[1] != "b" {
		t.Fatalf("fault = %+v", f)
	}
	if f.Res != 0.2 {
		t.Fatalf("metal short resistance = %g", f.Res)
	}
	if !f.Local {
		t.Fatal("no ports marked: fault must be local")
	}
	// Small defect touches only one wire: no fault.
	if _, ok := s.extract(&spec, geom.Disk{C: geom.Point{X: 25, Y: 0}, R: 0.8}); ok {
		t.Fatal("single-net touch must not fault")
	}
	// Defect in empty space: no fault.
	if _, ok := s.extract(&spec, geom.Disk{C: geom.Point{X: 25, Y: 20}, R: 2}); ok {
		t.Fatal("defect in space must not fault")
	}
}

func TestExtractBridgeCrossMacroFlag(t *testing.T) {
	c := twoWires()
	c.MarkPort("b")
	s := New(c, process.Default())
	spec := process.DefectSpec{Type: process.ExtraMaterial, Layer: process.Metal1}
	f, ok := s.extract(&spec, geom.Disk{C: geom.Point{X: 25, Y: 1.5}, R: 1.6})
	if !ok || f.Local {
		t.Fatalf("short involving port net must be non-local: %+v ok=%v", f, ok)
	}
}

// wireWithLoad builds: port wire "sig" runs x=0..30 on metal1, contacts to
// a MOS gate at the right end.
func wireWithLoad() *layout.Cell {
	b := layout.NewBuilder("loaded")
	b.HWire(process.Metal1, "sig", 0, 30, 10)
	b.CutAt(process.Contact, "sig", 29, 10)
	// Poly riser from the contact down to the device gate.
	b.VWire(process.Poly, "sig", 29, 2, 10.5)
	b.MOS("m1", "d", "sig", "s", 29, 0, layout.MOSOpts{W: 4, L: 1})
	b.C.MarkPort("sig")
	return b.C
}

func TestConnectivityOfTestCell(t *testing.T) {
	comp := CheckConnectivity(wireWithLoad())
	if comp["sig"] != 1 {
		t.Fatalf("sig components = %d, want 1", comp["sig"])
	}
}

func TestExtractOpen(t *testing.T) {
	s := New(wireWithLoad(), process.Default())
	spec := process.DefectSpec{Type: process.MissingMaterial, Layer: process.Metal1}
	// Sever the wire in the middle: the device side splits off.
	f, ok := s.extract(&spec, geom.Disk{C: geom.Point{X: 15, Y: 10}, R: 0.8})
	if !ok {
		t.Fatal("expected an open")
	}
	if f.Kind != faults.Open || f.Nets[0] != "sig" {
		t.Fatalf("fault = %+v", f)
	}
	if len(f.FarTerminals) != 1 || f.FarTerminals[0] != (faults.Terminal{Device: "m1", Net: "sig"}) {
		t.Fatalf("far terminals = %+v", f.FarTerminals)
	}
	if f.Local {
		t.Fatal("open on a port net is cross-macro")
	}
	// A defect too small to span the wire: no fault.
	if _, ok := s.extract(&spec, geom.Disk{C: geom.Point{X: 15, Y: 10}, R: 0.3}); ok {
		t.Fatal("partial nick must not open")
	}
	// Severing the far stub beyond the contact isolates nothing.
	if f2, ok := s.extract(&spec, geom.Disk{C: geom.Point{X: 29.9, Y: 10}, R: 0.7}); ok {
		// If the disk reaches the contact-connected region it may still
		// isolate the gate; only a pure stub cut must be a no-op.
		if len(f2.FarTerminals) == 0 {
			t.Fatalf("open with no terminals should have been discarded")
		}
	}
}

func TestExtractShortedDevice(t *testing.T) {
	s := New(wireWithLoad(), process.Default())
	spec := process.DefectSpec{Type: process.MissingMaterial, Layer: process.Poly}
	// Remove the gate: channel bridged. Gate of m1 is at (29, 0), W=4
	// so the gate rect spans y in [-2, 2], x in [28.5, 29.5].
	f, ok := s.extract(&spec, geom.Disk{C: geom.Point{X: 29, Y: 0}, R: 0.8})
	if !ok || f.Kind != faults.ShortedDevice || f.Device != "m1" {
		t.Fatalf("fault = %+v ok=%v", f, ok)
	}
}

func TestExtractGOSAndJunction(t *testing.T) {
	s := New(wireWithLoad(), process.Default())
	gos, ok := s.extract(&process.DefectSpec{Type: process.GateOxidePinhole}, geom.Disk{C: geom.Point{X: 29, Y: 0}, R: 0.2})
	if !ok || gos.Kind != faults.GOSPinhole || gos.Device != "m1" {
		t.Fatalf("gos = %+v ok=%v", gos, ok)
	}
	// Junction pinhole on the source region (left of gate at x≈26.5-28.5).
	jun, ok := s.extract(&process.DefectSpec{Type: process.JunctionPinhole}, geom.Disk{C: geom.Point{X: 27.5, Y: 0}, R: 0.2})
	if !ok || jun.Kind != faults.JunctionPinholeKind {
		t.Fatalf("junction = %+v ok=%v", jun, ok)
	}
	if jun.Nets[0] != "s" && jun.Nets[1] != "s" {
		t.Fatalf("junction nets = %v", jun.Nets)
	}
	// GOS off-gate: no fault.
	if _, ok := s.extract(&process.DefectSpec{Type: process.GateOxidePinhole}, geom.Disk{C: geom.Point{X: 5, Y: 10}, R: 0.2}); ok {
		t.Fatal("gos away from gates must not fault")
	}
}

func TestExtractThickOx(t *testing.T) {
	b := layout.NewBuilder("tox")
	b.HWire(process.Metal1, "m", 0, 20, 0)
	b.VWire(process.Poly, "p", 10, -5, 5) // poly crossing under the metal
	s := New(b.C, process.Default())
	f, ok := s.extract(&process.DefectSpec{Type: process.ThickOxidePinhole}, geom.Disk{C: geom.Point{X: 10, Y: 0}, R: 0.3})
	if !ok || f.Kind != faults.ThickOxPinhole {
		t.Fatalf("thickox = %+v ok=%v", f, ok)
	}
	if f.Nets[0] != "m" || f.Nets[1] != "p" {
		t.Fatalf("nets = %v", f.Nets)
	}
	// Away from the crossing: substrate short.
	f2, ok := s.extract(&process.DefectSpec{Type: process.ThickOxidePinhole}, geom.Disk{C: geom.Point{X: 3, Y: 0}, R: 0.3})
	if !ok || f2.Nets[0] != "m" || f2.Nets[1] != "vss" {
		t.Fatalf("substrate thickox = %+v ok=%v", f2, ok)
	}
}

func TestExtractExtraContact(t *testing.T) {
	b := layout.NewBuilder("xc")
	b.HWire(process.Metal1, "m", 0, 20, 0)
	b.VWire(process.Poly, "p", 10, -5, 5)
	s := New(b.C, process.Default())
	f, ok := s.extract(&process.DefectSpec{Type: process.ExtraContact}, geom.Disk{C: geom.Point{X: 10, Y: 0}, R: 0.3})
	if !ok || f.Kind != faults.ExtraContactKind {
		t.Fatalf("extracontact = %+v ok=%v", f, ok)
	}
	if f.Res != 2 {
		t.Fatalf("Res = %g, want 2", f.Res)
	}
	// No crossing: no fault (extra contacts need two conductors).
	if _, ok := s.extract(&process.DefectSpec{Type: process.ExtraContact}, geom.Disk{C: geom.Point{X: 3, Y: 0}, R: 0.3}); ok {
		t.Fatal("extra contact without a crossing must not fault")
	}
}

func TestExtractNewDevice(t *testing.T) {
	b := layout.NewBuilder("nd")
	b.MOS("m1", "d", "g", "s", 10, 0, layout.MOSOpts{W: 4, L: 1})
	s := New(b.C, process.Default())
	// Extra poly spanning the drain region (x in [10.5, 12.5], y ±2).
	f, ok := s.extract(&process.DefectSpec{Type: process.ExtraPoly}, geom.Disk{C: geom.Point{X: 11.5, Y: 0}, R: 2.5})
	if !ok || f.Kind != faults.NewDevice {
		t.Fatalf("newdevice = %+v ok=%v", f, ok)
	}
	if f.Nets[0] != "d" || f.Device != "m1" {
		t.Fatalf("fault = %+v", f)
	}
	// The disk also touches the m1 gate poly (net g) → parasitic gate.
	if f.GateNet != "g" {
		t.Fatalf("gate net = %q, want g", f.GateNet)
	}
}

func TestSprinkleDeterministicAndSane(t *testing.T) {
	cell := twoWires()
	s := New(cell, process.Default())
	r1, err := s.Sprinkle(context.Background(), 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Sprinkle(context.Background(), 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Faults) != len(r2.Faults) {
		t.Fatal("same seed must reproduce the same fault list")
	}
	for i := range r1.Faults {
		if r1.Faults[i].Key() != r2.Faults[i].Key() {
			t.Fatal("fault sequence mismatch")
		}
	}
	r3, err := s.Sprinkle(context.Background(), 5000, 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Faults) == len(r1.Faults) {
		// Extremely unlikely to match exactly; tolerate but check content.
		same := true
		for i := range r1.Faults {
			if r1.Faults[i].Key() != r3.Faults[i].Key() {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds should differ")
		}
	}
	if r1.Defects != 5000 {
		t.Fatalf("Defects = %d", r1.Defects)
	}
	// Only a small fraction of defects cause faults (paper: ~2 %).
	if rate := r1.FaultRate(); rate <= 0 || rate > 0.5 {
		t.Fatalf("fault rate = %g", rate)
	}
	// On this cell the only possible faults are a-b shorts and opens.
	for _, f := range r1.Faults {
		if f.Kind != faults.Short && f.Kind != faults.ThickOxPinhole {
			t.Fatalf("unexpected kind %v on two-wire cell", f.Kind)
		}
	}
}

func TestFaultRateEmpty(t *testing.T) {
	if (&Result{}).FaultRate() != 0 {
		t.Fatal("empty result rate must be 0")
	}
}

func TestComponentsWithoutRemoval(t *testing.T) {
	g := buildNetGraph(wireWithLoad())
	if n := g.components("sig", -1); n != 1 {
		t.Fatalf("sig graph components = %d", n)
	}
}
