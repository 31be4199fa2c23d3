// Package macros implements the five macro cells of the paper's Flash ADC
// case study — the clocked comparator with its flipflop, the reference
// resistor ladder, the bias generator, the clock generator and the digital
// thermometer decoder — each with a transistor-level (or gate-level)
// netlist, a procedurally generated layout for the defect simulator, and a
// Respond method that performs the macro's fault simulation and classifies
// the macro-level fault signature.
package macros

import (
	"context"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/signature"
	"repro/internal/spice"
)

// Electrical constants shared by every member of the converter family.
// The size-dependent quantities — comparator count, ladder segments,
// LSB, offset budget — derive from the Vehicle spec (vehicle.go).
const (
	// VDD is the nominal supply voltage.
	VDD = 5.0
	// VRefLo and VRefHi bound the conversion range; the LSB is the span
	// divided by the vehicle's 2^N taps (Vehicle.LSB) — at the default
	// 8-bit vehicle ≈7.8 mV, where the paper's 8 mV offset threshold is
	// exactly one LSB (Vehicle.OffsetLimit).
	VRefLo = 1.0
	VRefHi = 3.0
)

// Comparator phase timing for the three-phase clocking (sample, amplify,
// latch); one conversion takes 3 × TPhase.
const (
	TPhase = 100e-9
	TStep  = 2.5e-9
)

// Variation is one draw of the environmental/process conditions that span
// the good-signature space. All devices on the die shift together
// (die-level correlation), which is what makes current mirrors track.
type Variation struct {
	// DVTN and DVTP shift every NMOS/PMOS threshold (V).
	DVTN, DVTP float64
	// KPScale scales every transconductance parameter.
	KPScale float64
	// TempC is the die temperature (°C).
	TempC float64
	// VddScale scales the supply.
	VddScale float64
	// RhoScale scales every resistor (sheet resistance).
	RhoScale float64
	// FFLeakA is the flipflop leakage current per comparator slice during
	// the sampling phase (A); its die-to-die spread dominates the
	// sampling-phase IVdd bound before the DfT flipflop redesign.
	FFLeakA float64
}

// Nominal returns the nominal condition.
func Nominal() Variation {
	return Variation{KPScale: 1, TempC: 27, VddScale: 1, RhoScale: 1, FFLeakA: FFLeakNominal}
}

// Process-spread parameters for the Monte Carlo (σ values).
const (
	SigmaVT  = 0.030 // 30 mV threshold spread
	SigmaKP  = 0.05  // 5 % transconductance spread
	SigmaVdd = 0.02  // 2 % supply tolerance
	SigmaRho = 0.01  // 1 % matched-resistor spread
	// FFLeakNominal and FFLeakSigma set the per-slice flipflop leakage
	// (A); over the vehicle's 2^N slices the 3σ spread is 3·σ·2^N
	// (≈15 mA at the default 8-bit vehicle) — the paper's
	// sampling-phase supply-current spread.
	FFLeakNominal = 100e-6
	FFLeakSigma   = 20e-6
	// TempLo/TempHi bound the operating temperature range.
	TempLo = 0.0
	TempHi = 70.0
)

// Draw samples a random variation (die) from the process spread.
func Draw(rng *rand.Rand) Variation {
	leak := FFLeakNominal + rng.NormFloat64()*FFLeakSigma
	if leak < 0 {
		leak = 0
	}
	return Variation{
		DVTN:     rng.NormFloat64() * SigmaVT,
		DVTP:     rng.NormFloat64() * SigmaVT,
		KPScale:  1 + rng.NormFloat64()*SigmaKP,
		TempC:    TempLo + rng.Float64()*(TempHi-TempLo),
		VddScale: 1 + rng.NormFloat64()*SigmaVdd,
		RhoScale: 1 + rng.NormFloat64()*SigmaRho,
		FFLeakA:  leak,
	}
}

// RespondOpts parameterise a macro fault simulation.
type RespondOpts struct {
	// NonCat selects the near-miss (500 Ω ∥ 1 fF) fault model.
	NonCat bool
	// Var is the environmental condition.
	Var Variation
	// DfT applies the design-for-testability measures: the flipflop
	// redesign (no leakage path) and, through Layout(true), the
	// re-ordered bias lines.
	DfT bool
	// CurrentsOnly skips the voltage-signature classification (offset
	// bisection); used by the good-space Monte Carlo, which only needs
	// the current measurements.
	CurrentsOnly bool
	// Obs, when non-nil, receives the inject/faultsim/classify spans of
	// every simulation this response runs; Class labels them with the
	// fault class under analysis ("" for fault-free references). Macro,
	// when set, overrides the emitting macro's own name in the span
	// labels — the pipeline sets it to the analysed macro so a
	// delegated simulation (biasgen analyses run on the comparator
	// circuit) stays attributed to the class's macro.
	Obs   *obs.Observer
	Class string
	Macro string
	// Metrics, when non-nil, accumulates the solver hot-path counters
	// (Newton iterations, LU solves, convergence retries) across the
	// response's simulations.
	Metrics *obs.Metrics
	// Pool, when non-nil, reuses fault-free simulation engines across
	// Respond calls (checkout semantics; see EnginePool). Faulty runs
	// always build fresh engines.
	Pool *EnginePool
	// Base, when non-nil, memoises fault-free baseline results (nominal
	// ladder taps, comparator good-machine responses) so repeated class
	// analyses stop re-simulating the good machine. Hits are counted on
	// Metrics under obs.CtrBaselineCacheHits.
	Base *Baselines
}

// span opens an observability span labelled with this response's class
// and DfT setting (inert when no observer is attached).
func (o *RespondOpts) span(stage, macro string) obs.Span {
	if o.Macro != "" {
		macro = o.Macro
	}
	return o.Obs.Start(stage, macro, o.Class, o.DfT, o.Metrics)
}

// countBaselineHit records a fault-free baseline served without a
// simulation when hit is set. The hit replaces a StageFaultSim solve, so
// the counter is emitted inside a span of that stage for trace sinks.
func (o *RespondOpts) countBaselineHit(hit bool, macro string) {
	if hit {
		sp := o.span(obs.StageFaultSim, macro)
		o.Metrics.Add(obs.CtrBaselineCacheHits, 1)
		sp.End()
	}
}

// simOptions returns the solver options for this response's simulations
// (default settings with the counter block attached).
func (o *RespondOpts) simOptions() spice.Options {
	opt := spice.DefaultOptions()
	opt.Metrics = o.Metrics
	return opt
}

// Macro is one analysable block of the converter.
type Macro interface {
	// Name identifies the macro ("comparator", "ladder", …).
	Name() string
	// Count is the number of instances in the full ADC.
	Count() int
	// Layout returns the macro's mask layout; dft selects the
	// DfT-modified floorplan (re-ordered bias lines).
	Layout(dft bool) *layout.Cell
	// Respond fault-simulates the macro (f nil ⇒ fault-free) and
	// returns the classified macro-level signature with all current
	// measurements. Responses must contain the same measurement keys
	// for fault-free and faulty runs. Cancelling ctx aborts the
	// underlying solves; the error then satisfies spice.IsCancelled and
	// is never folded into a fault signature.
	Respond(ctx context.Context, f *faults.Fault, opt RespondOpts) (*signature.Response, error)
}

// gosWorstCase runs fn for every gate-oxide pinhole variant and returns
// the least-detectable response, mirroring the paper's "worst case (most
// difficult to detect) signature was chosen". Detectability is ranked by
// voltage signature strength first, then by total current deviation from
// the reference nominal response.
func gosWorstCase(nom *signature.Response, run func(v faults.GOSVariant) (*signature.Response, error)) (*signature.Response, error) {
	var worst *signature.Response
	var worstScore float64
	for v := faults.GOSVariant(0); v < faults.NumGOSVariants; v++ {
		r, err := run(v)
		if err != nil {
			// A cancelled variant is an abort, not an unsimulatable
			// defect variant.
			if spice.IsCancelled(err) {
				return nil, err
			}
			continue
		}
		score := responseScore(nom, r)
		if worst == nil || score < worstScore {
			worst, worstScore = r, score
		}
	}
	if worst == nil {
		// Every variant failed to simulate: gross malfunction.
		return &signature.Response{Voltage: signature.VSigMixed, Currents: map[string]float64{}}, nil
	}
	return worst, nil
}

// responseScore is a crude detectability metric: bigger means easier to
// detect.
func responseScore(nom, r *signature.Response) float64 {
	var s float64
	switch r.Voltage {
	case signature.VSigStuck, signature.VSigMixed:
		s += 1e6
	case signature.VSigOffset:
		s += 1e3
	case signature.VSigClock:
		s += 10
	}
	for k, v := range r.Currents {
		d := v - nom.Currents[k]
		if d < 0 {
			d = -d
		}
		s += d * 1e3
	}
	return s
}

// BuildComparatorTestbench exposes the comparator co-simulation testbench
// (slice + bias generator + clock buffers + sources) of the default
// vehicle for netlist export and external cross-checking. The input
// source sits at mid-range. (The slice netlist is vehicle-independent —
// only the instance count scales with resolution.)
func BuildComparatorTestbench(opt RespondOpts) *netlist.Builder {
	return NewComparator(DefaultVehicle()).buildComparatorCircuit((VRefLo+VRefHi)/2, opt)
}

// BuildClockgenTestbench exposes the standalone clock generator circuit
// in the first one-hot state.
func BuildClockgenTestbench(v Variation) *netlist.Builder {
	return NewClockgen(DefaultVehicle()).buildClockgenCircuit([3]float64{1, 0, 0}, v)
}

// BuildLadderTestbench exposes the default vehicle's reference-ladder
// circuit.
func BuildLadderTestbench(v Variation) *netlist.Builder {
	return NewLadder(DefaultVehicle()).buildLadderCircuit(v)
}
