package faults

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/process"
)

// planBench builds the richer testbench the Plan tests run on: the
// divider plus a transistor (for the device-referenced kinds) and a
// couple of extra nets.
func planBench() *netlist.Builder {
	b := divider()
	b.R("r3", "mid", "tapa", 500)
	b.R("r4", "tapa", "tapb", 500)
	b.NMOS("m1", "mid", "tapa", "0", 4, 1)
	return b
}

// refInject is the mutating injector Plan replaced, kept as the
// reference Plan+Apply must reproduce. It edits ckt as it goes, so on
// error it may leave ckt partly edited.
func refInject(ckt *netlist.Circuit, f Fault, proc *process.Process, opt InjectOptions) error {
	node := func(net string) netlist.NodeID { return ckt.Node(resolve(net)) }

	bridge := func(tag string, a, b netlist.NodeID, r float64) {
		if a == b {
			return
		}
		if opt.NonCat && (f.Kind == Short || f.Kind == ExtraContactKind) {
			ckt.Add(&netlist.Resistor{Label: "flt." + tag + ".r", A: a, B: b, R: proc.NonCatRes})
			ckt.Add(&netlist.Capacitor{Label: "flt." + tag + ".c", A: a, B: b, C: proc.NonCatCap})
			return
		}
		ckt.Add(&netlist.Resistor{Label: "flt." + tag, A: a, B: b, R: r})
	}

	switch f.Kind {
	case Short, ThickOxPinhole, ExtraContactKind, JunctionPinholeKind:
		if len(f.Nets) < 2 {
			return fmt.Errorf("faults: %v needs ≥2 nets", f.Kind)
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
		hub := node(f.Nets[0])
		for i, n := range f.Nets[1:] {
			bridge(fmt.Sprintf("%d", i), hub, node(n), r)
		}
		return nil

	case GOSPinhole:
		mos, ok := ckt.Element(f.Device).(*netlist.MOSFET)
		if !ok {
			return fmt.Errorf("faults: GOS pinhole on unknown device %q", f.Device)
		}
		r := f.Res
		if r <= 0 {
			r = proc.PinholeRes
		}
		switch opt.GOS {
		case GOSToSource:
			ckt.Add(&netlist.Resistor{Label: "flt.gos", A: mos.G, B: mos.S, R: r})
		case GOSToDrain:
			ckt.Add(&netlist.Resistor{Label: "flt.gos", A: mos.G, B: mos.D, R: r})
		case GOSToChannel:
			// Channel midpoint: pinhole feeds both junctions.
			ckt.Add(&netlist.Resistor{Label: "flt.gos.s", A: mos.G, B: mos.S, R: 2 * r})
			ckt.Add(&netlist.Resistor{Label: "flt.gos.d", A: mos.G, B: mos.D, R: 2 * r})
		default:
			return fmt.Errorf("faults: bad GOS variant %d", opt.GOS)
		}
		return nil

	case ShortedDevice:
		mos, ok := ckt.Element(f.Device).(*netlist.MOSFET)
		if !ok {
			return fmt.Errorf("faults: shorted device %q not found", f.Device)
		}
		r := f.Res
		if r <= 0 {
			r = proc.ShortedDeviceRes
		}
		ckt.Add(&netlist.Resistor{Label: "flt.sdev", A: mos.D, B: mos.S, R: r})
		return nil

	case Open:
		if len(f.Nets) != 1 {
			return fmt.Errorf("faults: open needs exactly 1 net")
		}
		split := ckt.Node(resolve(f.Nets[0]) + "#split")
		if err := refRetargetFar(ckt, f.FarTerminals, split); err != nil {
			return err
		}
		return nil

	case NewDevice:
		if len(f.Nets) != 1 {
			return fmt.Errorf("faults: new device needs exactly 1 net")
		}
		orig := node(f.Nets[0])
		split := ckt.Node(resolve(f.Nets[0]) + "#nd")
		if err := refRetargetFar(ckt, f.FarTerminals, split); err != nil {
			return err
		}
		var gate netlist.NodeID
		if f.GateNet == "" {
			// Floating parasitic gate: weakly tied to ground.
			gate = ckt.Node(resolve(f.Nets[0]) + "#ndgate")
			ckt.Add(&netlist.Resistor{Label: "flt.ndg", A: gate, B: netlist.Ground, R: 1e9})
		} else {
			gate = node(f.GateNet)
		}
		ckt.Add(&netlist.MOSFET{
			Label: "flt.nd", D: orig, G: gate, S: split, B: netlist.Ground,
			Model: netlist.NMOS1(), W: 2e-6, L: 2e-6,
		})
		return nil
	}
	return fmt.Errorf("faults: unknown kind %v", f.Kind)
}

// refRetargetFar moves every terminal listed in far from its present
// net to the split node.
func refRetargetFar(ckt *netlist.Circuit, far []Terminal, split netlist.NodeID) error {
	if len(far) == 0 {
		return fmt.Errorf("faults: open with no far terminals")
	}
	for _, t := range far {
		el := ckt.Element(t.Device)
		if el == nil {
			return fmt.Errorf("faults: open far terminal on unknown element %q", t.Device)
		}
		want, ok := ckt.NodeByName(resolve(t.Net))
		if !ok {
			return fmt.Errorf("faults: open net %q not in netlist", t.Net)
		}
		hit := false
		for i, n := range el.Nodes() {
			if n == want {
				el.Retarget(i, split)
				hit = true
			}
		}
		if !hit {
			return fmt.Errorf("faults: element %q has no terminal on %q", t.Device, t.Net)
		}
	}
	return nil
}

// circuitDiff describes the first difference between two circuits —
// node names in ID order, then every element — or returns "".
func circuitDiff(got, want *netlist.Circuit) string {
	if got.NumNodes() != want.NumNodes() {
		return fmt.Sprintf("%d nodes, want %d", got.NumNodes(), want.NumNodes())
	}
	for i := 0; i < got.NumNodes(); i++ {
		id := netlist.NodeID(i)
		if got.NodeName(id) != want.NodeName(id) {
			return fmt.Sprintf("node %d is %q, want %q", i, got.NodeName(id), want.NodeName(id))
		}
	}
	return elemsDiff(got.Elems, want.Elems)
}

// elemsDiff describes the first difference between two element lists,
// or returns "".
func elemsDiff(got, want []netlist.Element) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("element %d is %#v, want %#v", i, got[i], want[i])
		}
	}
	return ""
}

// checkPlan holds Plan and Inject to the reference injector for one
// fault on planBench: Plan leaves its input unchanged; Plan, Inject and
// the reference fail alike, with the same message; on success Inject
// builds exactly the reference's circuit, and on failure leaves its
// circuit unchanged; and TopologyChanged is false exactly when the
// edit only appends Added.
func checkPlan(t *testing.T, f Fault, opt InjectOptions) {
	t.Helper()
	proc := process.Default()
	label := fmt.Sprintf("%+v opt %+v", f, opt)
	pristine := planBench().C

	inspected := planBench().C
	plan, planErr := Plan(inspected, f, proc, opt)
	if d := circuitDiff(inspected, pristine); d != "" {
		t.Fatalf("%s: Plan mutated the circuit: %s", label, d)
	}
	ref := planBench().C
	refErr := refInject(ref, f, proc, opt)
	got := planBench().C
	injErr := Inject(got, f, proc, opt)

	if fmt.Sprint(planErr) != fmt.Sprint(refErr) || fmt.Sprint(injErr) != fmt.Sprint(refErr) {
		t.Fatalf("%s: errors differ: plan %v, inject %v, reference %v", label, planErr, injErr, refErr)
	}
	if refErr != nil {
		if d := circuitDiff(got, pristine); d != "" {
			t.Fatalf("%s: failed Inject edited the circuit: %s", label, d)
		}
		return
	}
	if d := circuitDiff(got, ref); d != "" {
		t.Fatalf("%s: Inject differs from the reference: %s", label, d)
	}
	n := len(pristine.Elems)
	appendOnly := got.NumNodes() == pristine.NumNodes() && elemsDiff(got.Elems[:n], pristine.Elems) == ""
	if plan.TopologyChanged == appendOnly {
		t.Fatalf("%s: TopologyChanged = %v for an edit with append-only = %v", label, plan.TopologyChanged, appendOnly)
	}
	if d := elemsDiff(got.Elems[n:], plan.Added); d != "" {
		t.Fatalf("%s: Inject did not append the planned elements: %s", label, d)
	}
}

// randFault draws a fault, valid or malformed: catastrophic and
// near-miss, known and unknown nets and devices, and far terminals
// mixing genuine terminals, unknown devices, off-net references and
// duplicates (which the walk rejects on the second encounter).
func randFault(rng *rand.Rand) (Fault, InjectOptions) {
	nets := []string{"mid", "tapa", "tapb", "vdd", "vss", "nosuch", "ghost", "mid#split"}
	devices := []string{"m1", "r1", "absent"}
	kinds := []Kind{Short, ThickOxPinhole, ExtraContactKind, JunctionPinholeKind,
		GOSPinhole, ShortedDevice, Open, NewDevice, Kind(99)}

	f := Fault{Kind: kinds[rng.Intn(len(kinds))]}
	nNets := rng.Intn(4)
	for i := 0; i < nNets; i++ {
		f.Nets = append(f.Nets, nets[rng.Intn(len(nets))])
	}
	if rng.Intn(2) == 0 {
		f.Res = rng.Float64() * 100
	}
	f.Device = devices[rng.Intn(len(devices))]
	if f.Kind == NewDevice && rng.Intn(2) == 0 {
		f.GateNet = nets[rng.Intn(len(nets))]
	}
	for i := rng.Intn(3); i > 0; i-- {
		ft := Terminal{Device: devices[rng.Intn(len(devices))], Net: nets[rng.Intn(len(nets))]}
		f.FarTerminals = append(f.FarTerminals, ft)
		if rng.Intn(4) == 0 {
			f.FarTerminals = append(f.FarTerminals, ft)
		}
	}
	return f, InjectOptions{
		NonCat: rng.Intn(3) == 0,
		GOS:    GOSVariant(rng.Intn(4)), // includes one invalid variant
	}
}

// TestQuickPlanMirrorsInject compares Plan and Inject with the
// reference injector over randomized faults, whole circuit by whole
// circuit, including the topology-changing ones.
func TestQuickPlanMirrorsInject(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		f, opt := randFault(rng)
		checkPlan(t, f, opt)
	}
}

// TestInjectAtomicOnError: every way Plan can fail leaves the circuit
// Inject was given unchanged, including the failures the splitting
// kinds meet only after their split node is named.
func TestInjectAtomicOnError(t *testing.T) {
	proc := process.Default()
	mid := []string{"mid"}
	for _, tc := range []struct {
		name string
		f    Fault
		opt  InjectOptions
	}{
		{"bridge with one net", Fault{Kind: Short, Nets: []string{"ghost"}}, InjectOptions{}},
		{"GOS on unknown device", Fault{Kind: GOSPinhole, Device: "absent"}, InjectOptions{}},
		{"GOS bad variant", Fault{Kind: GOSPinhole, Device: "m1"}, InjectOptions{GOS: NumGOSVariants}},
		{"shorted device unknown", Fault{Kind: ShortedDevice, Device: "r1"}, InjectOptions{}},
		{"open with two nets", Fault{Kind: Open, Nets: []string{"mid", "tapa"}}, InjectOptions{}},
		{"open without far terminals", Fault{Kind: Open, Nets: mid}, InjectOptions{}},
		{"open far on unknown element", Fault{Kind: Open, Nets: mid,
			FarTerminals: []Terminal{{Device: "absent", Net: "mid"}}}, InjectOptions{}},
		{"open far on unknown net", Fault{Kind: Open, Nets: mid,
			FarTerminals: []Terminal{{Device: "r1", Net: "ghost"}}}, InjectOptions{}},
		{"open far off its net after a move", Fault{Kind: Open, Nets: mid,
			FarTerminals: []Terminal{{Device: "r3", Net: "mid"}, {Device: "r3", Net: "mid"}}}, InjectOptions{}},
		{"new device with no nets", Fault{Kind: NewDevice}, InjectOptions{}},
		{"new device far on unknown element", Fault{Kind: NewDevice, Nets: []string{"ghost"},
			FarTerminals: []Terminal{{Device: "absent", Net: "mid"}}}, InjectOptions{}},
		{"new device without far terminals", Fault{Kind: NewDevice, Nets: mid}, InjectOptions{}},
		{"unknown kind", Fault{Kind: Kind(99), Nets: []string{"mid", "ghost"}}, InjectOptions{}},
	} {
		got := planBench().C
		if err := Inject(got, tc.f, proc, tc.opt); err == nil {
			t.Fatalf("%s: Inject succeeded", tc.name)
		}
		if d := circuitDiff(got, planBench().C); d != "" {
			t.Errorf("%s: failed Inject edited the circuit: %s", tc.name, d)
		}
	}
}

// FuzzPlan runs checkPlan on arbitrary fault records. Fault records
// cross a trust boundary: a restored unit's classes are decoded from
// checkpoint JSON. Nets are comma-separated; far terminals are
// semicolon-separated device/net pairs.
func FuzzPlan(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 32; i++ {
		flt, opt := randFault(rng)
		far := make([]string, len(flt.FarTerminals))
		for j, t := range flt.FarTerminals {
			far[j] = t.Device + "/" + t.Net
		}
		f.Add(int(flt.Kind), strings.Join(flt.Nets, ","), flt.Device, flt.GateNet,
			strings.Join(far, ";"), flt.Res, opt.NonCat, int(opt.GOS))
	}
	f.Fuzz(func(t *testing.T, kind int, nets, device, gate, far string, res float64, nonCat bool, gos int) {
		if math.IsNaN(res) {
			// JSON cannot carry a NaN resistance, and DeepEqual never
			// finds a NaN equal to itself.
			t.Skip()
		}
		flt := Fault{Kind: Kind(kind), Device: device, GateNet: gate, Res: res}
		if nets != "" {
			flt.Nets = strings.Split(nets, ",")
		}
		if far != "" {
			for _, p := range strings.Split(far, ";") {
				dev, net, _ := strings.Cut(p, "/")
				flt.FarTerminals = append(flt.FarTerminals, Terminal{Device: dev, Net: net})
			}
		}
		checkPlan(t, flt, InjectOptions{NonCat: nonCat, GOS: GOSVariant(gos)})
	})
}
