package macros

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/spice"
)

// ACResult characterises the comparator's pre-amplifier small-signal
// behaviour: differential DC gain and -3 dB bandwidth measured from vin
// to the amplifier outputs with the circuit held in the amplify
// configuration.
type ACResult struct {
	// GainDB is the low-frequency differential gain in dB.
	GainDB float64
	// Bandwidth3dB is the -3 dB frequency in Hz.
	Bandwidth3dB float64
}

// AmplifierAC measures the comparator's amplify-phase AC response with an
// optional fault injected — the "AC characteristics" measurement of the
// defect-oriented literature (Sachdev 1994), implemented here as an
// extension: the paper observes that clock-value faults, invisible to the
// simple DC tests, typically disturb exactly this high-frequency
// behaviour.
//
// The engine comes through checkoutEngine like every other session's:
// a pooled fault-free engine when opt.Pool has one, a fresh build (with
// f injected) otherwise.
func (m *ComparatorMacro) AmplifierAC(ctx context.Context, f *faults.Fault, opt RespondOpts) (*ACResult, error) {
	// Hold the circuit in the tracking configuration: clk1 high (input
	// switches on, so the DC operating point sees the inputs — in a DC
	// analysis the sampling capacitors are open and cannot hold charge),
	// latch and transfer gates off. The PWL phase sources are static
	// inside the second sampling window, so an operating point evaluated
	// at t = 370 ns configures the clocks directly. The signal path
	// vin → switch → diff pair → outputs is exactly the one whose
	// high-frequency behaviour clock-value faults degrade.
	eng, release, err := checkoutEngine(opt, engineCheckout{
		key:  m.engineKey(opt),
		f:    f,
		io:   faults.InjectOptions{NonCat: opt.NonCat},
		into: func(b *netlist.Builder) { m.buildComparatorInto(b, m.VRef, opt) },
	})
	if err != nil {
		return nil, err
	}
	defer release()
	// A pooled engine carries the input level of its last session.
	if err := eng.RetuneVSource("vvin", netlist.DC(m.VRef)); err != nil {
		return nil, err
	}
	op, err := eng.OPAt(ctx, 370e-9)
	if err != nil {
		return nil, fmt.Errorf("macros: amplifier OP: %w", err)
	}
	// Differential response o1-o2 to a unit AC excitation on vvin.
	freqs := spice.LogSpace(1e3, 1e9, 49)
	sols, err := eng.AC(op, "vvin", freqs)
	if err != nil {
		return nil, err
	}
	diff := func(s *spice.ACSolution) float64 {
		return cmplx.Abs(s.V("o1") - s.V("o2"))
	}
	ref := diff(sols[0])
	res := &ACResult{GainDB: 20 * math.Log10(math.Max(ref, 1e-12))}
	res.Bandwidth3dB = freqs[len(freqs)-1]
	for _, s := range sols {
		if diff(s) < ref/math.Sqrt2 {
			res.Bandwidth3dB = s.Freq
			break
		}
	}
	return res, nil
}

// ACDeviates reports whether a faulty AC response differs from the
// nominal one by more than the given gain (dB) and bandwidth (ratio)
// tolerances — the detection criterion of the extension AC test.
func ACDeviates(nom, faulty *ACResult, gainTolDB, bwTolRatio float64) bool {
	if math.Abs(nom.GainDB-faulty.GainDB) > gainTolDB {
		return true
	}
	r := faulty.Bandwidth3dB / nom.Bandwidth3dB
	return r > 1+bwTolRatio || r < 1/(1+bwTolRatio)
}
