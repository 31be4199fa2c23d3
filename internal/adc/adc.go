// Package adc provides the high-level (behavioural) model of the N-bit
// full-flash converter family whose 8-bit member is the paper's vehicle.
// The
// defect-oriented test path uses this model for the fault-signature
// sensitisation/propagation step: a macro-level fault signature (a
// comparator offset or stuck output, a shifted reference tap, a broken
// decoder) is plugged into the model and the circuit-edge missing-code
// test decides whether the signature is voltage-detectable.
package adc

import (
	"fmt"
	"math"
)

// StuckNone marks a comparator that is not stuck.
const StuckNone = -1

// Comparator is the behavioural model of one comparator/flipflop slice.
type Comparator struct {
	// Offset is the input-referred offset voltage added to the
	// comparison threshold.
	Offset float64
	// Stuck forces the output (0 or 1); StuckNone disables.
	Stuck int
	// Erratic makes the slice output garbage (the "Mixed" signature):
	// the decision toggles pseudo-randomly per sample.
	Erratic bool
}

// Decoder converts a thermometer code to a binary output code.
type Decoder func(thermo []bool) int

// ADC is the behavioural flash converter: a resistive reference ladder's
// tap voltages, one comparator per tap, and a thermometer decoder.
type ADC struct {
	// Taps are the reference voltages, ascending in the fault-free case.
	Taps []float64
	// Comps hold the per-slice behavioural parameters (same length).
	Comps []Comparator
	// Decode maps the thermometer code to the output number; nil uses
	// FirstZeroDecode, the transition-detecting decoder of the paper's
	// converter.
	Decode Decoder

	sampleSeq uint64    // drives the deterministic Erratic toggles
	thermo    []bool    // per-instance Convert scratch (ADC is not concurrency-safe)
	pmax      []float64 // per-instance prefixMaxThresholds scratch
	hist      []int     // per-instance HasMissingCode histogram
}

// New builds a fault-free n-tap ADC spanning [vlo, vhi]: n = 2^N for the
// vehicle family (the paper's 8-bit converter has 2^8 reference voltages
// and comparators, codes 0..2^8-1).
func New(n int, vlo, vhi float64) *ADC {
	a := &ADC{
		Taps:  make([]float64, n),
		Comps: make([]Comparator, n),
	}
	a.Reset(vlo, vhi)
	return a
}

// Reset restores a, in place, to the fault-free converter New builds
// with the same tap count over [vlo, vhi]: ideal taps, plain
// comparators, the default decoder and the Erratic sequence at its
// start. Only the scratch buffers survive, so a reset ADC converts
// exactly as a new one.
func (a *ADC) Reset(vlo, vhi float64) {
	n := len(a.Taps)
	for i := range a.Taps {
		// Tap i at vlo + (i+0.5) LSB: code k spans one LSB around its
		// centre.
		a.Taps[i] = vlo + (float64(i)+0.5)*(vhi-vlo)/float64(n)
		a.Comps[i] = Comparator{Stuck: StuckNone}
	}
	a.Decode = nil
	a.sampleSeq = 0
}

// Codes returns the number of output codes (2^n taps → codes 0..n).
func (a *ADC) Codes() int { return len(a.Taps) + 1 }

// CountingDecode is the robust thermometer decoder: the output code is the
// number of ones. Bubbles shift the code but never explode.
func CountingDecode(thermo []bool) int {
	n := 0
	for _, b := range thermo {
		if b {
			n++
		}
	}
	return n
}

// FirstZeroDecode models the transition-detecting ROM decoder of real
// flash converters (and of the paper's ADC): the output code is the
// position of the lowest unfired comparator. A comparator firing out of
// order therefore skips codes — exactly why an offset beyond 1 LSB causes
// a missing code at the circuit edge. This is the default decoder.
func FirstZeroDecode(thermo []bool) int {
	for i, b := range thermo {
		if !b {
			return i
		}
	}
	return len(thermo)
}

// allDefault reports whether every slice is a plain comparator (no
// stuck outputs, no erratic toggles) decoded by the default
// FirstZeroDecode — the common fault-free-or-offset-only case where
// Convert reduces to finding the first unfired comparator.
func (a *ADC) allDefault() bool {
	if a.Decode != nil {
		return false
	}
	for i := range a.Comps {
		if c := &a.Comps[i]; c.Stuck != StuckNone || c.Erratic {
			return false
		}
	}
	return true
}

// convertDefault is Convert specialised to the allDefault case: with
// FirstZeroDecode the first comparator that does not fire decides the
// code, so the scan stops there. The comparisons are exactly Convert's,
// so the result is identical — only the already-determined tail is
// skipped.
func (a *ADC) convertDefault(vin float64) int {
	for i := range a.Taps {
		if !(vin > a.Taps[i]+a.Comps[i].Offset) {
			return i
		}
	}
	return len(a.Taps)
}

// prefixMaxThresholds returns the running maximum of the effective
// comparison thresholds Taps[i]+Offset[i]. The first-zero code of an
// arbitrary (even non-monotonic, faulted) threshold vector is the
// smallest i with vin <= t[i], which — because the prefix maximum is
// non-decreasing and first reaches >= vin exactly at that i — equals
// the lower-bound index of vin in this array, so the ramp finds its
// codes by walking one index along it (see sweep), with results
// identical to the O(n) convertDefault scan. Returns nil when any
// threshold is NaN (unordered against everything, which the prefix
// maximum cannot represent); callers then keep the linear scan.
func (a *ADC) prefixMaxThresholds() []float64 {
	if cap(a.pmax) < len(a.Taps) {
		a.pmax = make([]float64, len(a.Taps))
	}
	pmax := a.pmax[:len(a.Taps)]
	m := math.Inf(-1)
	for i := range a.Taps {
		t := a.Taps[i] + a.Comps[i].Offset
		if math.IsNaN(t) {
			return nil
		}
		if t > m {
			m = t
		}
		pmax[i] = m
	}
	return pmax
}

// Convert produces the output code for one input sample.
func (a *ADC) Convert(vin float64) int {
	if len(a.thermo) < len(a.Taps) {
		a.thermo = make([]bool, len(a.Taps))
	}
	thermo := a.thermo[:len(a.Taps)]
	for i := range a.Taps {
		c := &a.Comps[i]
		switch {
		case c.Stuck == 0:
			thermo[i] = false
		case c.Stuck == 1:
			thermo[i] = true
		case c.Erratic:
			a.sampleSeq = a.sampleSeq*6364136223846793005 + 1442695040888963407
			thermo[i] = a.sampleSeq>>63 == 1
		default:
			thermo[i] = vin > a.Taps[i]+c.Offset
		}
	}
	dec := a.Decode
	if dec == nil {
		dec = FirstZeroDecode
	}
	code := dec(thermo)
	if code < 0 {
		code = 0
	}
	if code > len(a.Taps) {
		code = len(a.Taps)
	}
	return code
}

// RampResult is the outcome of a triangular-wave missing-code test.
type RampResult struct {
	// Hist counts occurrences of each code.
	Hist []int
	// Missing lists the codes that never occurred.
	Missing []int
	// Samples is the number of samples taken.
	Samples int
}

// HasMissing reports whether any code failed to appear.
func (r *RampResult) HasMissing() bool { return len(r.Missing) > 0 }

// MissingCodeTest applies the paper's missing-code test: a triangular
// waveform sweeping slightly beyond both ends of the conversion range,
// sampled `samples` times (1 000 in the paper), checking that every output
// number occurs.
func (a *ADC) MissingCodeTest(vlo, vhi float64, samples int) *RampResult {
	res := &RampResult{Hist: make([]int, a.Codes()), Samples: samples}
	a.sweep(res.Hist, vlo, vhi, samples)
	for code, n := range res.Hist {
		if n == 0 {
			res.Missing = append(res.Missing, code)
		}
	}
	return res
}

// HasMissingCode runs MissingCodeTest's ramp and reports only whether a
// code is missing: MissingCodeTest(vlo, vhi, samples).HasMissing(),
// counted into a histogram the ADC keeps for its next test.
func (a *ADC) HasMissingCode(vlo, vhi float64, samples int) bool {
	if cap(a.hist) < a.Codes() {
		a.hist = make([]int, a.Codes())
	}
	hist := a.hist[:a.Codes()]
	clear(hist)
	a.sweep(hist, vlo, vhi, samples)
	for _, n := range hist {
		if n == 0 {
			return true
		}
	}
	return false
}

// sweep samples the triangular ramp into hist (zeroed, len Codes()).
// In the allDefault case each sample's code is the lower-bound index of
// the sample in the prefix-maximum thresholds. Within each half of the
// triangle the samples are monotone, so that index moves monotonically
// too: one index walks along the array, and the whole ramp costs
// O(samples + taps) instead of a binary search per sample. A NaN sample
// (no threshold is >= it) counts in the last code, as a binary search
// would count it.
func (a *ADC) sweep(hist []int, vlo, vhi float64, samples int) {
	span := vhi - vlo
	over := 0.02 * span // sweep 2 % beyond the range ends
	var pmax []float64
	if a.allDefault() {
		pmax = a.prefixMaxThresholds()
	}
	idx := 0
	for i := 0; i < samples; i++ {
		ph := 2 * float64(i) / float64(samples) // 0..2 → up and down
		var v float64
		if ph <= 1 {
			v = vlo - over + ph*(span+2*over)
		} else {
			v = vhi + over - (ph-1)*(span+2*over)
		}
		switch {
		case pmax == nil:
			hist[a.Convert(v)]++
		case v != v:
			hist[len(pmax)]++
		default:
			for idx < len(pmax) && pmax[idx] < v {
				idx++
			}
			for idx > 0 && pmax[idx-1] >= v {
				idx--
			}
			hist[idx]++
		}
	}
}

// INLDNL computes the integral and differential nonlinearity (in LSB) from
// a dense ramp of the converter's transfer curve, for the ladder example
// and the DfT studies. It returns the worst absolute INL and DNL.
func (a *ADC) INLDNL(vlo, vhi float64) (inl, dnl float64) {
	n := a.Codes()
	lsb := (vhi - vlo) / float64(n-1)
	// Locate each code transition by fine sweep.
	trans := make([]float64, 0, n)
	prev := a.Convert(vlo - lsb)
	steps := (n - 1) * 64
	for i := 0; i <= steps; i++ {
		v := vlo - lsb + (vhi-vlo+2*lsb)*float64(i)/float64(steps)
		c := a.Convert(v)
		for c > prev {
			trans = append(trans, v)
			prev++
		}
		if c > prev {
			prev = c
		}
	}
	for k := 1; k < len(trans); k++ {
		w := (trans[k] - trans[k-1]) / lsb
		if d := math.Abs(w - 1); d > dnl {
			dnl = d
		}
	}
	for k := 0; k < len(trans); k++ {
		ideal := vlo + (float64(k)+0.5)*lsb
		if d := math.Abs((trans[k] - ideal) / lsb); d > inl {
			inl = d
		}
	}
	return inl, dnl
}

// String summarises the ramp result.
func (r *RampResult) String() string {
	if !r.HasMissing() {
		return fmt.Sprintf("all %d codes present in %d samples", len(r.Hist), r.Samples)
	}
	return fmt.Sprintf("%d missing codes (first %v) in %d samples", len(r.Missing), r.Missing[0], r.Samples)
}
