package macros

import "fmt"

// Vehicle is the resolution spec of the flash-converter family: every
// size-dependent quantity of the case study — comparator count, ladder
// segment/tap count, decoder width, LSB, the offset-detection budget,
// the test-stimulus length — derives from the single resolution
// parameter N. The paper's vehicle is the 8-bit member (DefaultVehicle);
// the constants that stay fixed across the family (supply, reference
// span, clock phases, process spread) remain package constants in
// macro.go.
//
// The 8-bit member reproduces the historical package constants exactly,
// bit for bit: the derivations below are chosen so every floating-point
// result at Bits = 8 equals the former constant (LSB = 2 V/256 is a
// power of two, so scaling it is exact; the ladder's total resistance is
// held constant so RSeg lands on 8 Ω; the offset budget is 1.024 LSB,
// which at 8 bits is exactly the paper's 8 mV).
type Vehicle struct {
	// Bits is the converter resolution N: 2^N comparators and ladder
	// segments, N output bits.
	Bits int
}

// DefaultBits is the resolution of the paper's case study.
const DefaultBits = 8

// MinBits and MaxBits bound the supported family. The lower bound keeps
// the ladder serpentine well-formed (LadderRowLen segments per row must
// divide 2^N); the upper bound keeps a full campaign tractable.
const (
	MinBits = 4
	MaxBits = 12
)

// ladderTotalRes is the full reference-string resistance (Ω), held
// constant across the family so the reference current stays ≈1 mA from
// the 2 V span at every resolution (2048/2^N Ω per segment: exactly the
// historical 8 Ω at 8 bits).
const ladderTotalRes = 2048.0

// DefaultVehicle returns the paper's 8-bit converter.
func DefaultVehicle() Vehicle { return Vehicle{Bits: DefaultBits} }

// NewVehicle validates bits and returns the vehicle spec.
func NewVehicle(bits int) (Vehicle, error) {
	v := Vehicle{Bits: bits}
	if err := v.Validate(); err != nil {
		return Vehicle{}, err
	}
	return v, nil
}

// Validate rejects resolutions outside the supported family.
func (v Vehicle) Validate() error {
	if v.Bits < MinBits || v.Bits > MaxBits {
		return fmt.Errorf("macros: vehicle resolution %d bits out of range [%d, %d]",
			v.Bits, MinBits, MaxBits)
	}
	return nil
}

// String labels the vehicle ("8-bit flash ADC").
func (v Vehicle) String() string { return fmt.Sprintf("%d-bit flash ADC", v.Bits) }

// Comparators is the number of comparator slices (2^N).
func (v Vehicle) Comparators() int { return 1 << v.Bits }

// LadderSegments is the number of series resistors in the reference
// string (one per comparator; taps 0..2^N).
func (v Vehicle) LadderSegments() int { return v.Comparators() }

// DecoderInputs is the number of thermometer inputs of the decoder
// (t001..t(2^N-1); code 0 needs no input).
func (v Vehicle) DecoderInputs() int { return v.Comparators() - 1 }

// LSB is the conversion-range quantum (V). At 8 bits this is the
// historical 2 V/256 = 7.8125 mV exactly (a power of two, so every
// derived scaling below is computed without rounding).
func (v Vehicle) LSB() float64 { return (VRefHi - VRefLo) / float64(v.Comparators()) }

// OffsetLimit is the voltage-signature offset-detection budget:
// 1.024 LSB, the paper's 8 mV at the 8-bit member (exactly — the LSB is
// a power of two, so 1.024·LSB rounds to the same double as the literal
// 8e-3 constant it replaces).
func (v Vehicle) OffsetLimit() float64 { return 1.024 * v.LSB() }

// RSeg is the nominal ladder segment resistance (Ω): the full string is
// held at 2048 Ω (≈1 mA from the 2 V reference span) at every
// resolution, so the per-segment value is 2048/2^N — exactly the
// historical 8 Ω at 8 bits.
func (v Vehicle) RSeg() float64 { return ladderTotalRes / float64(v.LadderSegments()) }

// TestSamples is the missing-code ramp length: the paper's 1 000
// conversions at 8 bits and below, scaled up proportionally above so the
// sweep keeps ≈0.5 LSB per sample and every code stays reachable.
func (v Vehicle) TestSamples() int {
	n := 1000 * v.Comparators() / (1 << DefaultBits)
	if n < 1000 {
		return 1000
	}
	return n
}
