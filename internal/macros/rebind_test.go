package macros

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/spice"
)

// rebindCase is one conductance-only fault axis of the property test.
type rebindCase struct {
	f  *faults.Fault
	io faults.InjectOptions
}

// rebindMacro describes one macro's (Variation, fault, slice) axes: how
// to build a reference circuit at a concrete triple, how to record the
// base binding the production checkout path uses, and how the slice is
// applied to a pooled engine (B-side retune). Biasgen delegates its
// circuit to the comparator, so the three circuit-owning macros cover
// the whole family.
type rebindMacro struct {
	name      string
	vref      float64
	leak      func(v Variation) bool
	faults    []rebindCase
	build     func(v Variation, slice float64) *netlist.Builder
	canonical float64
	retune    func(eng *spice.Engine, v Variation, slice float64) error
	slice     func(rng *rand.Rand) float64
}

// TestRevaluePropertyBitIdentical is the rebind analogue of the
// faults package's Plan-against-reference guard: for hundreds of random
// (Variation, conductance-only fault, slice) triples per macro, an engine checked out of the pool and
// Revalued in place must assemble bit-identical MNA systems — and, on a
// sampled subset, solve to bit-identical operating points — as an engine
// freshly built and injected at exactly that triple.
func TestRevaluePropertyBitIdentical(t *testing.T) {
	n := 500
	solveEvery := 25
	if testing.Short() {
		n = 60
		solveEvery = 15
	}
	ctx := context.Background()

	cmp := NewComparator(DefaultVehicle())
	lad := NewLadder(DefaultVehicle())
	clk := NewClockgen(DefaultVehicle())

	macros := []rebindMacro{
		{
			name: cmp.Name(),
			vref: cmp.VRef,
			leak: func(v Variation) bool { return v.FFLeakA > 1e-9 },
			faults: []rebindCase{
				{f: nil},
				{f: &faults.Fault{Kind: faults.Short, Nets: []string{"o1", "vss"}, Res: 0.2}},
				{f: &faults.Fault{Kind: faults.Short, Nets: []string{"vbn1", "vbn2"}, Res: 0.2}},
				{f: &faults.Fault{Kind: faults.Short, Nets: []string{"clk1", "clk2"}, Res: 0.2},
					io: faults.InjectOptions{NonCat: true}},
				{f: &faults.Fault{Kind: faults.GOSPinhole, Device: "m1"},
					io: faults.InjectOptions{GOS: faults.GOSToSource}},
				{f: &faults.Fault{Kind: faults.GOSPinhole, Device: "m2"},
					io: faults.InjectOptions{GOS: faults.GOSToDrain}},
			},
			build: func(v Variation, slice float64) *netlist.Builder {
				return cmp.buildComparatorCircuit(slice, RespondOpts{Var: v})
			},
			canonical: vinLow,
			retune: func(eng *spice.Engine, _ Variation, slice float64) error {
				return eng.RetuneVSource("vvin", netlist.DC(slice))
			},
			slice: func(rng *rand.Rand) float64 {
				return vinLow + rng.Float64()*(vinHigh-vinLow)
			},
		},
		{
			name: lad.Name(),
			faults: []rebindCase{
				{f: nil},
				{f: &faults.Fault{Kind: faults.Short, Nets: []string{"t096", "t128"}, Res: 25}},
				{f: &faults.Fault{Kind: faults.Short, Nets: []string{"t032", "t224"}, Res: 100}},
				{f: &faults.Fault{Kind: faults.Short, Nets: []string{"t000", "t064"}, Res: 25},
					io: faults.InjectOptions{NonCat: true}},
			},
			// The ladder has no stimulus slice: its sources are the fixed
			// reference rails, so the triple degenerates to (Variation, fault).
			build: func(v Variation, _ float64) *netlist.Builder {
				return lad.buildLadderCircuit(v)
			},
			slice: func(*rand.Rand) float64 { return 0 },
		},
		{
			name: clk.Name(),
			faults: []rebindCase{
				{f: nil},
				{f: &faults.Fault{Kind: faults.Short, Nets: []string{"clk1", "clk2"}, Res: 0.2}},
				{f: &faults.Fault{Kind: faults.Short, Nets: []string{"cg1_0", "cg1_1"}, Res: 0.2},
					io: faults.InjectOptions{NonCat: true}},
				{f: &faults.Fault{Kind: faults.GOSPinhole, Device: "cg.mp1_0"},
					io: faults.InjectOptions{GOS: faults.GOSToSource}},
			},
			// Slice = static phase state index.
			build: func(v Variation, slice float64) *netlist.Builder {
				return clk.buildClockgenCircuit(cgStates[int(slice)], v)
			},
			retune: func(eng *spice.Engine, v Variation, slice float64) error {
				st := cgStates[int(slice)]
				vdd := VDD * v.VddScale
				for i := 1; i <= 3; i++ {
					if err := eng.RetuneVSource(fmt.Sprintf("vphi%d", i), netlist.DC(st[i-1]*vdd)); err != nil {
						return err
					}
				}
				return nil
			},
			slice: func(rng *rand.Rand) float64 { return float64(rng.Intn(len(cgStates))) },
		},
	}

	for _, mc := range macros {
		mc := mc
		t.Run(mc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(mc.name))*7919 + 0x5eed))
			pool := NewEnginePool()
			met := &obs.Metrics{}
			for i := 0; i < n; i++ {
				v := Draw(rng)
				slice := mc.slice(rng)
				fc := mc.faults[rng.Intn(len(mc.faults))]
				opt := RespondOpts{Var: v, Pool: pool, Metrics: met}

				// Reference: built and injected from scratch at this triple.
				fb := mc.build(v, slice)
				if fc.f != nil {
					if err := faults.Inject(fb.C, *fc.f, procShared, fc.io); err != nil {
						t.Fatalf("triple %d: inject: %v", i, err)
					}
				}
				fresh := spice.New(fb.C, opt.simOptions())

				key := engineKey{macro: mc.name, vref: mc.vref,
					leak: mc.leak != nil && mc.leak(v), fault: faultKey(fc.f, fc.io)}
				canon := slice
				if mc.retune != nil {
					canon = mc.canonical
				}
				eng, release, err := checkoutEngine(opt, engineCheckout{
					key: key, f: fc.f, io: fc.io,
					baseBinding: func() *netlist.Binding {
						bind := &netlist.Binding{}
						mc.recordInto(bind, v)
						return bind
					},
					build: func() *netlist.Builder { return mc.build(v, canon) },
				})
				if err != nil {
					t.Fatalf("triple %d: checkout: %v", i, err)
				}
				if release == nil {
					t.Fatalf("triple %d: conductance-only fault %+v was classified topology-changing", i, fc.f)
				}
				if mc.retune != nil {
					if err := mc.retune(eng, v, slice); err != nil {
						t.Fatalf("triple %d: retune: %v", i, err)
					}
				}

				// The assembled MNA system must match bitwise in both stamp
				// modes (DC operating point and a transient step).
				for _, chk := range []struct {
					mode  netlist.StampMode
					t, dt float64
				}{{netlist.DCOp, 0, 0}, {netlist.Transient, 101e-9, 1e-10}} {
					fs, rs := fresh.StampChecksum(chk.mode, chk.t, chk.dt), eng.StampChecksum(chk.mode, chk.t, chk.dt)
					if fs != rs {
						t.Fatalf("triple %d (fault %+v, slice %g): mode %v stamp checksum %016x != fresh %016x",
							i, fc.f, slice, chk.mode, rs, fs)
					}
				}

				// Sampled subset: the full operating-point solution, bitwise.
				if i%solveEvery == 0 {
					fsol, ferr := fresh.OP(ctx)
					rsol, rerr := eng.OP(ctx)
					if (ferr == nil) != (rerr == nil) {
						t.Fatalf("triple %d: OP error divergence: fresh %v, revalued %v", i, ferr, rerr)
					}
					if ferr == nil {
						if len(fsol.X) != len(rsol.X) {
							t.Fatalf("triple %d: solution dim %d != %d", i, len(rsol.X), len(fsol.X))
						}
						for j := range fsol.X {
							if math.Float64bits(fsol.X[j]) != math.Float64bits(rsol.X[j]) {
								t.Fatalf("triple %d: X[%d] = %x != fresh %x",
									i, j, math.Float64bits(rsol.X[j]), math.Float64bits(fsol.X[j]))
							}
						}
					}
				}
				release()
			}
			// The run must have been dominated by revalues: full builds only
			// on cold keys (bounded by distinct (leak, fault) combinations).
			rebinds, rebuilds := met.Get(obs.CtrRebindHits), met.Get(obs.CtrFullRebuilds)
			if rebinds <= rebuilds {
				t.Fatalf("rebind_hits (%d) must dominate full_rebuilds (%d) over %d triples",
					rebinds, rebuilds, n)
			}
		})
	}
}

// recordInto records the macro's base binding for the given variation,
// mirroring what the production checkout paths do per macro.
func (mc *rebindMacro) recordInto(bind *netlist.Binding, v Variation) {
	b := netlist.NewRecorder(bind)
	switch mc.name {
	case "comparator":
		NewComparator(DefaultVehicle()).buildComparatorInto(b, vinLow, RespondOpts{Var: v})
	case "ladder":
		NewLadder(DefaultVehicle()).buildLadderInto(b, v)
	case "clockgen":
		NewClockgen(DefaultVehicle()).buildClockgenInto(b, cgStates[0], v)
	default:
		panic("unknown macro " + mc.name)
	}
}
