package macros

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/spice"
)

func TestAmplifierACNominal(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	res, err := m.AmplifierAC(context.Background(), nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	// The diff pair with diode-clamped loads has moderate gain (> 6 dB)
	// and a bandwidth well inside the sweep.
	if res.GainDB < 6 || res.GainDB > 60 {
		t.Fatalf("gain = %.1f dB", res.GainDB)
	}
	if res.Bandwidth3dB <= 1e3 || res.Bandwidth3dB >= 1e9 {
		t.Fatalf("bandwidth = %g Hz", res.Bandwidth3dB)
	}
}

func TestAmplifierACClockValueFaultDeviates(t *testing.T) {
	m := NewComparatorWithRef(DefaultVehicle(), 2.0)
	nom, err := m.AmplifierAC(context.Background(), nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	// A high-ohmic (non-catastrophic) defect loading clk1 sags the
	// switch gate drive: the tracking bandwidth drops — the paper's
	// observation that clock-value faults disturb the high-frequency
	// behaviour, invisible to the simple DC tests.
	// 800 Ω keeps the switch conducting (the DC behaviour stays clean)
	// while the sagged gate drive cuts the tracking bandwidth by ~40 %.
	f := &faults.Fault{Kind: faults.ThickOxPinhole, Nets: []string{"clk1", "vss"}, Res: 800}
	faulty, err := m.AmplifierAC(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if !ACDeviates(nom, faulty, 1.0, 0.3) {
		t.Fatalf("clock fault AC: nom=%.1fdB/%.3g faulty=%.1fdB/%.3g",
			nom.GainDB, nom.Bandwidth3dB, faulty.GainDB, faulty.Bandwidth3dB)
	}
}

func TestACDeviatesPredicate(t *testing.T) {
	nom := &ACResult{GainDB: 20, Bandwidth3dB: 1e7}
	if ACDeviates(nom, &ACResult{GainDB: 20.5, Bandwidth3dB: 1.1e7}, 1, 0.3) {
		t.Fatal("within tolerance must not deviate")
	}
	if !ACDeviates(nom, &ACResult{GainDB: 15, Bandwidth3dB: 1e7}, 1, 0.3) {
		t.Fatal("gain loss must deviate")
	}
	if !ACDeviates(nom, &ACResult{GainDB: 20, Bandwidth3dB: 2e6}, 1, 0.3) {
		t.Fatal("bandwidth collapse must deviate")
	}
	if !ACDeviates(nom, &ACResult{GainDB: 20, Bandwidth3dB: 5e7}, 1, 0.3) {
		t.Fatal("bandwidth explosion must deviate")
	}
}

func TestAmplifierACGainFaultVisible(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	nom, err := m.AmplifierAC(context.Background(), nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	// Shorting one load diode kills half the gain path asymmetrically.
	f := &faults.Fault{Kind: faults.ShortedDevice, Device: "m3"}
	faulty, err := m.AmplifierAC(context.Background(), f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nom.GainDB-faulty.GainDB) < 1 {
		t.Fatalf("load fault must change the gain: %.1f vs %.1f dB", nom.GainDB, faulty.GainDB)
	}
}

// acDirect is AmplifierAC as it was before it obtained its engine
// through checkoutEngine: a fresh build, the fault injected, a new
// engine that is never released. It is the reference the pooled and
// the pool-less checkouts must reproduce bit for bit.
func acDirect(t *testing.T, m *ComparatorMacro, f *faults.Fault, opt RespondOpts) ACResult {
	t.Helper()
	b := m.buildComparatorCircuit(m.VRef, opt)
	if f != nil {
		if err := faults.Inject(b.C, *f, procShared, faults.InjectOptions{NonCat: opt.NonCat}); err != nil {
			t.Fatal(err)
		}
	}
	eng := spice.New(b.C, opt.simOptions())
	op, err := eng.OPAt(context.Background(), 370e-9)
	if err != nil {
		t.Fatal(err)
	}
	freqs := spice.LogSpace(1e3, 1e9, 49)
	sols, err := eng.AC(op, "vvin", freqs)
	if err != nil {
		t.Fatal(err)
	}
	diff := func(s *spice.ACSolution) float64 { return cmplx.Abs(s.V("o1") - s.V("o2")) }
	ref := diff(sols[0])
	res := ACResult{GainDB: 20 * math.Log10(math.Max(ref, 1e-12)), Bandwidth3dB: freqs[len(freqs)-1]}
	for _, s := range sols {
		if diff(s) < ref/math.Sqrt2 {
			res.Bandwidth3dB = s.Freq
			break
		}
	}
	return res
}

// TestAmplifierACCheckoutMatchesDirect: the nominal and a faulty
// amplifier measure bit-identically with and without an engine pool,
// and equal the direct construction. The pooled nominal runs take an
// engine that last ran the comparator's transients at other input
// levels, once at the same Variation (covering the vvin retune) and
// once at another die's (covering the revalue).
func TestAmplifierACCheckoutMatchesDirect(t *testing.T) {
	m := NewComparatorWithRef(DefaultVehicle(), 2.0)
	ctx := context.Background()
	clk := &faults.Fault{Kind: faults.ThickOxPinhole, Nets: []string{"clk1", "vss"}, Res: 800}
	for _, f := range []*faults.Fault{nil, clk} {
		want := acDirect(t, m, f, RespondOpts{Var: Nominal()})
		got, err := m.AmplifierAC(ctx, f, RespondOpts{Var: Nominal()})
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Fatalf("fault %v, no pool: got %+v, direct construction %+v", f, *got, want)
		}
		for _, warm := range []Variation{Nominal(), Draw(rand.New(rand.NewSource(7)))} {
			pool, met := NewEnginePool(), &obs.Metrics{}
			if _, err := m.Respond(ctx, nil, RespondOpts{Var: warm, CurrentsOnly: true, Pool: pool}); err != nil {
				t.Fatal(err)
			}
			got, err := m.AmplifierAC(ctx, f, RespondOpts{Var: Nominal(), Pool: pool, Metrics: met})
			if err != nil {
				t.Fatal(err)
			}
			if *got != want {
				t.Fatalf("fault %v, pool warmed at %+v: got %+v, direct construction %+v", f, warm, *got, want)
			}
			if hits := met.Get(obs.CtrRebindHits); (f == nil) != (hits == 1) {
				t.Fatalf("fault %v: %d rebind hits, want the pooled engine for the nominal run only", f, hits)
			}
		}
	}
}
