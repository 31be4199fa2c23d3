package adc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

const (
	vlo = 1.0
	vhi = 3.0
)

func fresh() *ADC { return New(256, vlo, vhi) }

func TestFaultFreeNoMissingCodes(t *testing.T) {
	a := fresh()
	res := a.MissingCodeTest(vlo, vhi, 1000)
	if res.HasMissing() {
		t.Fatalf("fault-free ADC has missing codes: %v", res.Missing)
	}
	if res.Samples != 1000 {
		t.Fatalf("Samples = %d", res.Samples)
	}
	if res.String() == "" {
		t.Fatal("String")
	}
}

func TestConvertMonotoneFaultFree(t *testing.T) {
	a := fresh()
	prev := -1
	for v := vlo - 0.1; v <= vhi+0.1; v += 0.001 {
		c := a.Convert(v)
		if c < prev {
			t.Fatalf("non-monotone at %g: %d < %d", v, c, prev)
		}
		prev = c
	}
	if a.Convert(vlo-1) != 0 {
		t.Fatal("below range must give 0")
	}
	if a.Convert(vhi+1) != 256 {
		t.Fatal("above range must give full scale")
	}
}

func TestStuckComparatorCausesMissingCode(t *testing.T) {
	a := fresh()
	a.Comps[100].Stuck = 1 // always fires
	res := a.MissingCodeTest(vlo, vhi, 1000)
	if !res.HasMissing() {
		t.Fatal("stuck comparator must produce a missing code")
	}
	b := fresh()
	b.Comps[100].Stuck = 0
	if !b.MissingCodeTest(vlo, vhi, 1000).HasMissing() {
		t.Fatal("stuck-low comparator must produce a missing code")
	}
}

func TestLargeOffsetCausesMissingCode(t *testing.T) {
	lsb := (vhi - vlo) / 256
	a := fresh()
	a.Comps[128].Offset = 1.6 * lsb // > 1 LSB: code 128's band vanishes
	if !a.MissingCodeTest(vlo, vhi, 2000).HasMissing() {
		t.Fatal("offset > 1 LSB must kill a code")
	}
	// A small offset (< 1 LSB) must NOT create a missing code.
	b := fresh()
	b.Comps[128].Offset = 0.4 * lsb
	if b.MissingCodeTest(vlo, vhi, 2000).HasMissing() {
		t.Fatal("offset < 1 LSB must not kill a code")
	}
}

func TestCommonOffsetNoMissingCode(t *testing.T) {
	// A bias fault shifts EVERY comparator equally: the ramp overdrive
	// still reaches all codes — the paper's hard-to-detect case.
	a := fresh()
	for i := range a.Comps {
		a.Comps[i].Offset = 0.005 // 0.64 LSB common shift
	}
	if a.MissingCodeTest(vlo, vhi, 2000).HasMissing() {
		t.Fatal("common-mode shift must not create missing codes")
	}
}

func TestErraticComparator(t *testing.T) {
	a := fresh()
	a.Comps[50].Erratic = true
	// Erratic behaviour scrambles codes around tap 50; the counting
	// decoder turns it into ±1 code noise. Run the ramp: code histogram
	// may or may not lose a code, but Convert must stay in range.
	for v := vlo; v <= vhi; v += 0.01 {
		c := a.Convert(v)
		if c < 0 || c > 256 {
			t.Fatalf("out of range code %d", c)
		}
	}
}

func TestShortedAdjacentTapsMissingCode(t *testing.T) {
	// A ladder short making taps k and k+1 equal removes code k+1's band.
	a := fresh()
	a.Taps[60] = a.Taps[61]
	if !a.MissingCodeTest(vlo, vhi, 2000).HasMissing() {
		t.Fatal("equal adjacent taps must produce a missing code")
	}
}

func TestCountingDecode(t *testing.T) {
	if CountingDecode([]bool{true, true, false}) != 2 {
		t.Fatal("count")
	}
	if CountingDecode(nil) != 0 {
		t.Fatal("empty")
	}
	// Bubble: 1,0,1 counts 2 — no explosion.
	if CountingDecode([]bool{true, false, true}) != 2 {
		t.Fatal("bubble")
	}
}

func TestCustomDecoder(t *testing.T) {
	a := fresh()
	called := false
	a.Decode = func(th []bool) int {
		called = true
		return CountingDecode(th)
	}
	a.Convert(2.0)
	if !called {
		t.Fatal("custom decoder not used")
	}
	// A broken decoder mapping everything to 0 loses all codes but 0.
	b := fresh()
	b.Decode = func([]bool) int { return 0 }
	res := b.MissingCodeTest(vlo, vhi, 500)
	if len(res.Missing) != 256 {
		t.Fatalf("broken decoder missing = %d, want 256", len(res.Missing))
	}
}

func TestINLDNLFaultFree(t *testing.T) {
	a := New(64, vlo, vhi) // smaller for speed
	inl, dnl := a.INLDNL(vlo, vhi)
	if inl > 0.1 || dnl > 0.1 {
		t.Fatalf("fault-free INL/DNL = %g/%g, want ~0", inl, dnl)
	}
	// A 0.5 LSB tap error shows up in INL and DNL.
	lsb := (vhi - vlo) / 64
	a.Taps[30] += 0.5 * lsb
	inl2, dnl2 := a.INLDNL(vlo, vhi)
	if inl2 < 0.4 || dnl2 < 0.4 {
		t.Fatalf("tap error INL/DNL = %g/%g, want ≥0.4", inl2, dnl2)
	}
}

// Property: the histogram of a ramp test sums to the sample count and the
// fault-free converter covers every code for any sample count ≥ 4× codes.
func TestQuickRampHistogram(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := 16 + int(nRaw%4)*16 // 16..64 taps
		a := New(n, vlo, vhi)
		samples := 4 * (n + 1)
		res := a.MissingCodeTest(vlo, vhi, samples)
		total := 0
		for _, h := range res.Hist {
			total += h
		}
		return total == samples && !res.HasMissing()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a single stuck slice produces at least one missing code for
// any tap position.
func TestQuickStuckAlwaysDetected(t *testing.T) {
	f := func(posRaw uint8, val bool) bool {
		a := New(64, vlo, vhi)
		pos := int(posRaw) % 64
		if val {
			a.Comps[pos].Stuck = 1
		} else {
			a.Comps[pos].Stuck = 0
		}
		return a.MissingCodeTest(vlo, vhi, 1000).HasMissing()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the binary search over prefix-maximum thresholds that
// MissingCodeTest uses in the allDefault case returns exactly the
// linear first-zero scan's code, for arbitrary (non-monotonic, faulted)
// tap and offset vectors. This is the exactness contract that lets the
// ramp test bypass the O(n) scan without perturbing a single histogram
// bin.
func TestQuickPrefixMaxSearchMatchesScan(t *testing.T) {
	f := func(seed uint64, probeRaw uint8) bool {
		n := 32 + int(seed%5)*16
		a := New(n, vlo, vhi)
		state := seed
		next := func() float64 {
			state = state*6364136223846793005 + 1442695040888963407
			return float64(state>>40)/float64(1<<24) - 0.5
		}
		for i := range a.Taps {
			// Scramble hard: large tap excursions and offsets, so the
			// threshold vector is thoroughly non-monotonic.
			a.Taps[i] += next() * (vhi - vlo)
			a.Comps[i].Offset = next() * 0.3
		}
		pmax := a.prefixMaxThresholds()
		if pmax == nil {
			return false
		}
		// Probe across and beyond the scrambled range, plus exact
		// threshold values (the tie-break cases).
		probes := []float64{
			vlo - 2, vhi + 2,
			vlo + float64(probeRaw)/255*(vhi-vlo),
			a.Taps[int(probeRaw)%n] + a.Comps[int(probeRaw)%n].Offset,
		}
		for _, v := range probes {
			want := a.convertDefault(v)
			if got := sort.SearchFloat64s(pmax, v); got != want {
				t.Logf("v=%g: search %d, scan %d", v, got, want)
				return false
			}
			// Convert must agree too (same comparisons, full thermometer).
			if got := a.Convert(v); got != want {
				t.Logf("v=%g: Convert %d, scan %d", v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixMaxNaNFallsBack pins the NaN guard: an unordered threshold
// cannot be represented by the prefix maximum, so the fast path must
// refuse and MissingCodeTest must keep the (identical-result) scan.
func TestPrefixMaxNaNFallsBack(t *testing.T) {
	a := fresh()
	a.Comps[13].Offset = math.NaN()
	if a.prefixMaxThresholds() != nil {
		t.Fatal("prefixMaxThresholds accepted a NaN threshold")
	}
	res := a.MissingCodeTest(vlo, vhi, 500)
	total := 0
	for _, h := range res.Hist {
		total += h
	}
	if total != 500 {
		t.Fatalf("histogram lost samples under NaN fallback: %d/500", total)
	}
}

func TestTapSpacing(t *testing.T) {
	a := fresh()
	lsb := (vhi - vlo) / 256
	for i := 1; i < len(a.Taps); i++ {
		if d := a.Taps[i] - a.Taps[i-1]; math.Abs(d-lsb) > 1e-12 {
			t.Fatalf("tap spacing %g at %d, want %g", d, i, lsb)
		}
	}
	if a.Codes() != 257 {
		t.Fatalf("Codes = %d", a.Codes())
	}
}

// TestFamilyInvariants pins the behavioural model's invariants across the
// vehicle family — the model is size-parametric, so the properties the
// 8-bit tests above rely on must hold at every resolution the campaign
// can select.
func TestFamilyInvariants(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			a := New(n, vlo, vhi)
			if got := a.Codes(); got != n+1 {
				t.Fatalf("Codes() = %d, want %d", got, n+1)
			}
			// Tap spacing is one LSB everywhere, with tap i at
			// vlo + (i+0.5)·LSB.
			lsb := (vhi - vlo) / float64(n)
			for i, tap := range a.Taps {
				want := vlo + (float64(i)+0.5)*lsb
				if math.Abs(tap-want) > 1e-12 {
					t.Fatalf("tap %d = %v, want %v", i, tap, want)
				}
			}
			// Conversion clamps to the code range and is monotone on a
			// fault-free converter.
			if got := a.Convert(vlo - 1); got != 0 {
				t.Fatalf("below-range code %d", got)
			}
			if got := a.Convert(vhi + 1); got != n {
				t.Fatalf("above-range code %d", got)
			}
			// The ramp must cover every code when it carries at least a
			// couple of samples per code (the campaign scales the
			// stimulus with the vehicle — Vehicle.TestSamples).
			samples := 4 * n
			if samples < 1000 {
				samples = 1000
			}
			if res := a.MissingCodeTest(vlo, vhi, samples); res.HasMissing() {
				t.Fatalf("fault-free missing codes: %v", res.Missing)
			}
			// A stuck comparator anywhere in the array is detected.
			for _, k := range []int{0, n / 2, n - 1} {
				b := New(n, vlo, vhi)
				b.Comps[k].Stuck = 1
				if res := b.MissingCodeTest(vlo, vhi, samples); !res.HasMissing() {
					t.Fatalf("stuck comparator %d undetected", k)
				}
			}
		})
	}
}

// searchHist is the binary-search reference of the ramp: each sample's
// code is sort.SearchFloat64s over the prefix-maximum thresholds in the
// allDefault case, Convert otherwise.
func searchHist(a *ADC, vlo, vhi float64, samples int) []int {
	hist := make([]int, a.Codes())
	span := vhi - vlo
	over := 0.02 * span
	var pmax []float64
	if a.allDefault() {
		pmax = a.prefixMaxThresholds()
	}
	for i := 0; i < samples; i++ {
		ph := 2 * float64(i) / float64(samples)
		var v float64
		if ph <= 1 {
			v = vlo - over + ph*(span+2*over)
		} else {
			v = vhi + over - (ph-1)*(span+2*over)
		}
		if pmax != nil {
			hist[sort.SearchFloat64s(pmax, v)]++
		} else {
			hist[a.Convert(v)]++
		}
	}
	return hist
}

// rampSample returns sample i of the ramp, as the sweep computes it.
func rampSample(vlo, vhi float64, samples, i int) float64 {
	span := vhi - vlo
	over := 0.02 * span
	ph := 2 * float64(i) / float64(samples)
	if ph <= 1 {
		return vlo - over + ph*(span+2*over)
	}
	return vhi + over - (ph-1)*(span+2*over)
}

// TestMissingCodeWalkMatchesSearch: the ramp's walked lower-bound index
// fills the histogram exactly as a binary search per sample does, over
// scrambled non-monotone thresholds, ties exactly at thresholds, ±Inf
// thresholds, reversed and NaN ranges and 1 to 3 000 samples.
// HasMissingCode agrees with MissingCodeTest, and an ADC reused through
// Reset tests exactly as a new one.
func TestMissingCodeWalkMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	reused := New(64, vlo, vhi)
	for c := 0; c < 3000; c++ {
		n := 1 + rng.Intn(300)
		lo, hi := vlo, vhi
		switch c % 10 {
		case 7:
			lo, hi = vhi, vlo // reversed range: the halves run down, then up
		case 9:
			if c%20 == 9 {
				lo = math.NaN()
			}
		}
		samples := 1 + rng.Intn(3000)
		if c < 2 {
			samples = []int{1, 3000}[c]
		}
		a := New(n, lo, hi)
		for i := range a.Taps {
			switch r := rng.Intn(20); {
			case r < 8:
				// Scramble: a non-monotone threshold vector.
				a.Taps[i] += (rng.Float64() - 0.5) * (vhi - vlo)
				a.Comps[i].Offset = (rng.Float64() - 0.5) * 0.3
			case r < 11:
				// A tie: the threshold lands exactly on a sample.
				a.Taps[i] = rampSample(lo, hi, samples, rng.Intn(samples))
			case r == 11:
				a.Taps[i] = math.Inf(1)
			case r == 12:
				a.Taps[i] = math.Inf(-1)
			}
		}
		if c%25 == 3 {
			a.Comps[rng.Intn(n)].Stuck = 1 // the Convert branch
		}
		if !a.allDefault() || a.prefixMaxThresholds() == nil {
			// The scan branches cost n per sample in both histograms.
			samples = 1 + samples%300
		}
		want := searchHist(a, lo, hi, samples)
		res := a.MissingCodeTest(lo, hi, samples)
		for code := range want {
			if res.Hist[code] != want[code] {
				t.Fatalf("case %d (n=%d, samples=%d, range %g..%g): code %d counted %d times, search counts %d",
					c, n, samples, lo, hi, code, res.Hist[code], want[code])
			}
		}
		if got := a.HasMissingCode(lo, hi, samples); got != res.HasMissing() {
			t.Fatalf("case %d: HasMissingCode = %v, MissingCodeTest missing %v", c, got, res.Missing)
		}

		// The same converter rebuilt in a reused ADC via Reset.
		if len(reused.Taps) != n {
			reused = New(n, vlo, vhi)
			reused.Comps[0].Erratic = true
			reused.Decode = CountingDecode
			reused.Convert(vlo)
		}
		reused.Reset(lo, hi)
		b := New(n, lo, hi)
		if fmt.Sprint(reused.Taps) != fmt.Sprint(b.Taps) || !reflect.DeepEqual(reused.Comps, b.Comps) ||
			reused.Decode != nil || reused.sampleSeq != b.sampleSeq {
			t.Fatalf("case %d: Reset(%g, %g) differs from New", c, lo, hi)
		}
		copy(reused.Taps, a.Taps)
		copy(reused.Comps, a.Comps)
		if got := reused.HasMissingCode(lo, hi, samples); got != res.HasMissing() {
			t.Fatalf("case %d: reused HasMissingCode = %v, want %v", c, got, res.HasMissing())
		}
	}
}
