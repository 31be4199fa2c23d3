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

// rebindCase is one fault axis of the property test (f nil =
// fault-free).
type rebindCase struct {
	f  *faults.Fault
	io faults.InjectOptions
}

// rebindMacro describes one macro's (Variation, fault, slice) axes: how
// to construct its testbench at a concrete (Variation, slice) — the
// construction closure the production checkout path uses — and how the
// slice is applied to a live engine (B-side retune). Biasgen delegates
// its circuit to the comparator, so the three circuit-owning macros
// cover the whole family.
type rebindMacro struct {
	name      string
	vref      float64
	leak      func(v Variation) bool
	faults    []rebindCase
	into      func(b *netlist.Builder, v Variation, slice float64)
	canonical float64
	retune    func(eng *spice.Engine, v Variation, slice float64) error
	slice     func(rng *rand.Rand) float64
}

// TestRevaluePropertyBitIdentical is the rebind analogue of the
// faults package's Plan-against-reference guard: for hundreds of random
// (Variation, fault, slice) triples per macro, the engine a checkout
// serves must assemble bit-identical MNA systems — and, on a sampled
// subset, solve to bit-identical operating points — as an engine
// freshly built and injected at exactly that triple. Fault-free triples
// go through the pool twice (a revalue from another Variation, then the
// equal-Variation skip); faulty triples build one session engine at the
// canonical slice and retune it.
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
				{f: &faults.Fault{Kind: faults.Open, Nets: []string{"o1"},
					FarTerminals: []faults.Terminal{{Device: "m1", Net: "o1"}}}},
			},
			into: func(b *netlist.Builder, v Variation, slice float64) {
				cmp.buildComparatorInto(b, slice, RespondOpts{Var: v})
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
			into: func(b *netlist.Builder, v Variation, _ float64) {
				lad.buildLadderInto(b, v)
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
			into: func(b *netlist.Builder, v Variation, slice float64) {
				clk.buildClockgenInto(b, cgStates[int(slice)], v)
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
			// Fault-free checkouts count on freeMet, so the rebind bound
			// below sees the pooled traffic only.
			freeMet, faultyMet := &obs.Metrics{}, &obs.Metrics{}
			for i := 0; i < n; i++ {
				v := Draw(rng)
				slice := mc.slice(rng)
				fc := mc.faults[rng.Intn(len(mc.faults))]
				opt := RespondOpts{Var: v, Pool: pool, Metrics: freeMet}
				if fc.f != nil {
					opt.Metrics = faultyMet
				}

				// Reference: built and injected from scratch at this triple.
				fb := netlist.NewBuilder()
				mc.into(fb, v, slice)
				if fc.f != nil {
					if err := faults.Inject(fb.C, *fc.f, procShared, fc.io); err != nil {
						t.Fatalf("triple %d: inject: %v", i, err)
					}
				}
				fresh := spice.New(fb.C, opt.simOptions())

				canon := slice
				if mc.retune != nil {
					canon = mc.canonical
				}
				co := engineCheckout{
					key: engineKey{macro: mc.name, vref: mc.vref, leak: mc.leak != nil && mc.leak(v)},
					f:   fc.f, io: fc.io,
					into: func(b *netlist.Builder) { mc.into(b, v, canon) },
				}
				// check checks an engine out, retunes it to the triple's
				// slice and compares it against the fresh reference; it
				// returns the engine and its release.
				check := func(pass string) (*spice.Engine, func()) {
					t.Helper()
					eng, release, err := checkoutEngine(opt, co)
					if err != nil {
						t.Fatalf("triple %d %s: checkout: %v", i, pass, err)
					}
					if release == nil {
						t.Fatalf("triple %d %s: fault %v: nil release", i, pass, fc.f)
					}
					if mc.retune != nil {
						if err := mc.retune(eng, v, slice); err != nil {
							t.Fatalf("triple %d %s: retune: %v", i, pass, err)
						}
					}

					// The assembled MNA system must match bitwise in both
					// stamp modes (DC operating point and a transient step).
					for _, chk := range []struct {
						mode  netlist.StampMode
						t, dt float64
					}{{netlist.DCOp, 0, 0}, {netlist.Transient, 101e-9, 1e-10}} {
						fs, rs := fresh.StampChecksum(chk.mode, chk.t, chk.dt), eng.StampChecksum(chk.mode, chk.t, chk.dt)
						if fs != rs {
							t.Fatalf("triple %d %s (fault %+v, slice %g): mode %v stamp checksum %016x != fresh %016x",
								i, pass, fc.f, slice, chk.mode, rs, fs)
						}
					}

					// Sampled subset: the full operating-point solution, bitwise.
					if i%solveEvery == 0 {
						fsol, ferr := fresh.OP(ctx)
						rsol, rerr := eng.OP(ctx)
						if (ferr == nil) != (rerr == nil) {
							t.Fatalf("triple %d %s: OP error divergence: fresh %v, served %v", i, pass, ferr, rerr)
						}
						if ferr == nil {
							if len(fsol.X) != len(rsol.X) {
								t.Fatalf("triple %d %s: solution dim %d != %d", i, pass, len(rsol.X), len(fsol.X))
							}
							for j := range fsol.X {
								if math.Float64bits(fsol.X[j]) != math.Float64bits(rsol.X[j]) {
									t.Fatalf("triple %d %s: X[%d] = %x != fresh %x",
										i, pass, j, math.Float64bits(rsol.X[j]), math.Float64bits(fsol.X[j]))
								}
							}
						}
					}
					return eng, release
				}

				eng, release := check("first")
				if fc.f != nil {
					// A faulty engine is never pooled: its release
					// recycles the matrix and leaves the pool as it is.
					before := pool.size()
					release()
					if after := pool.size(); after != before {
						t.Fatalf("triple %d: faulty release changed the pool size %d -> %d", i, before, after)
					}
					continue
				}
				// Leave the engine at another stimulus, as a finished
				// session does: the second checkout at the same Variation
				// skips the revalue, and its retune must restore the slice.
				if mc.retune != nil {
					if err := mc.retune(eng, v, mc.slice(rng)); err != nil {
						t.Fatalf("triple %d: retune: %v", i, err)
					}
				}
				release()
				again, release := check("second")
				if again != eng {
					t.Fatalf("triple %d: second checkout at one Variation was not served the pooled engine", i)
				}
				release()
			}
			// The fault-free traffic must have been dominated by pool
			// hits: full builds only on cold keys (bounded by the
			// distinct leak variants).
			rebinds, rebuilds := freeMet.Get(obs.CtrRebindHits), freeMet.Get(obs.CtrFullRebuilds)
			if rebinds <= rebuilds {
				t.Fatalf("rebind_hits (%d) must dominate full_rebuilds (%d) over %d triples",
					rebinds, rebuilds, n)
			}
			// Every faulty triple built its own engine.
			if hits := faultyMet.Get(obs.CtrRebindHits); hits != 0 {
				t.Fatalf("faulty checkouts served %d pooled engines, want 0", hits)
			}
		})
	}
}
