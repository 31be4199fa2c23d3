// Package process describes the fabrication process the defect simulator
// needs: the layer stack, material resistances for short/contact/pinhole
// fault models, per-defect-type densities, and the spot-defect size
// distribution.
//
// The default process mirrors the paper's setting: a 1 µm double-metal CMOS
// process in which the majority of spot defects are extra-material defects
// in the metallisation steps, and the fault-model resistances follow the
// paper's Table of values (0.2 Ω metal shorts, higher-ohmic polysilicon and
// diffusion shorts, 2 Ω extra contacts, 2 kΩ oxide/junction pinholes).
package process

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer identifies a mask/physical layer of the layout.
type Layer int

// The layer stack of the default double-metal CMOS process. NDiff and PDiff
// are the active areas of NMOS and PMOS devices; Poly forms gates and local
// interconnect; Metal1/Metal2 carry most routing; Contact and Via are the
// vertical connections.
const (
	NDiff Layer = iota
	PDiff
	Poly
	Metal1
	Metal2
	Contact // metal1 to poly/diffusion
	Via     // metal1 to metal2
	NWell
	numLayers
)

// NumLayers is the number of distinct layers.
const NumLayers = int(numLayers)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case NDiff:
		return "ndiff"
	case PDiff:
		return "pdiff"
	case Poly:
		return "poly"
	case Metal1:
		return "metal1"
	case Metal2:
		return "metal2"
	case Contact:
		return "contact"
	case Via:
		return "via"
	case NWell:
		return "nwell"
	}
	return fmt.Sprintf("layer(%d)", int(l))
}

// Conducting reports whether the layer is a conductor on which extra
// material causes bridges and missing material causes opens.
func (l Layer) Conducting() bool {
	switch l {
	case NDiff, PDiff, Poly, Metal1, Metal2:
		return true
	}
	return false
}

// DefectType enumerates the spot-defect mechanisms of the VLASIC
// catastrophic defect simulator reproduced here. The list is exactly the
// fault-mechanism breakdown of the paper's Table 1.
type DefectType int

const (
	// ExtraMaterial is a disk of unwanted conductor on one layer; it
	// causes shorts between nets routed close together.
	ExtraMaterial DefectType = iota
	// MissingMaterial is a disk of absent conductor; it causes opens when
	// it severs a wire, and shorted devices when it removes gate poly.
	MissingMaterial
	// GateOxidePinhole is a rupture of the thin gate oxide, connecting a
	// transistor gate resistively to the channel/source/drain.
	GateOxidePinhole
	// JunctionPinhole is a leaky source/drain junction, connecting the
	// diffusion resistively to the bulk (substrate or well).
	JunctionPinhole
	// ThickOxidePinhole is a rupture of the field/inter-level oxide,
	// connecting vertically adjacent conductors.
	ThickOxidePinhole
	// ExtraContact is an unwanted vertical connection at a spot where two
	// conductors cross (a parasitic contact/via).
	ExtraContact
	// ExtraPoly over diffusion splits the diffusion and creates a new
	// parasitic device ("new device" in the paper).
	ExtraPoly
	numDefectTypes
)

// NumDefectTypes is the number of distinct defect mechanisms.
const NumDefectTypes = int(numDefectTypes)

// String implements fmt.Stringer.
func (t DefectType) String() string {
	switch t {
	case ExtraMaterial:
		return "extra-material"
	case MissingMaterial:
		return "missing-material"
	case GateOxidePinhole:
		return "gate-oxide-pinhole"
	case JunctionPinhole:
		return "junction-pinhole"
	case ThickOxidePinhole:
		return "thick-oxide-pinhole"
	case ExtraContact:
		return "extra-contact"
	case ExtraPoly:
		return "extra-poly"
	}
	return fmt.Sprintf("defect(%d)", int(t))
}

// DefectSpec describes one defect mechanism: which layer it attacks, its
// relative density (defects per unit area, arbitrary consistent units) and
// its size distribution parameters.
type DefectSpec struct {
	Type  DefectType
	Layer Layer // the attacked conductor (for pinholes: the upper conductor / diffusion)
	// Density is the relative likelihood of this mechanism per unit layout
	// area. Only ratios matter for fault statistics.
	Density float64
	// D0 is the most likely defect diameter (µm); Dmax bounds the tail.
	D0, Dmax float64
}

// Process bundles everything the defect simulator and fault modeller need.
type Process struct {
	// Name identifies the process.
	Name string
	// Lambda is the feature half-pitch in µm (layout DSL uses multiples).
	Lambda float64
	// Defects lists the active defect mechanisms with densities.
	Defects []DefectSpec
	// ShortRes maps a conductor layer to the resistance (Ω) of an
	// extra-material bridge on that layer.
	ShortRes map[Layer]float64
	// ExtraContactRes is the resistance of a parasitic vertical contact.
	ExtraContactRes float64
	// PinholeRes is the resistance of gate-oxide/junction/thick-oxide
	// pinholes.
	PinholeRes float64
	// ShortedDeviceRes is the drain-source resistance of a "shorted
	// device" fault (missing gate poly).
	ShortedDeviceRes float64
	// NonCatRes and NonCatCap define the near-miss (non-catastrophic)
	// fault model evolved from catastrophic shorts and extra contacts:
	// a parallel R-C of 500 Ω and 1 fF in the paper.
	NonCatRes float64
	NonCatCap float64
}

// Default returns the 1 µm double-metal CMOS process used throughout the
// reproduction. Densities follow the qualitative statement of the paper:
// "the majority of the spot defects in the fabrication process consist of
// extra material defects in the metallization steps"; gate-oxide and
// junction pinholes are the next most important mechanisms, opens are rare.
func Default() *Process {
	return &Process{
		Name:   "cmos1um-2m",
		Lambda: 0.5,
		Defects: []DefectSpec{
			// Extra material: metallisation dominates.
			{Type: ExtraMaterial, Layer: Metal1, Density: 38, D0: 1.2, Dmax: 12},
			{Type: ExtraMaterial, Layer: Metal2, Density: 30, D0: 1.5, Dmax: 14},
			{Type: ExtraMaterial, Layer: Poly, Density: 7, D0: 0.9, Dmax: 8},
			{Type: ExtraMaterial, Layer: NDiff, Density: 2.0, D0: 0.9, Dmax: 8},
			{Type: ExtraMaterial, Layer: PDiff, Density: 2.0, D0: 0.9, Dmax: 8},
			// Missing material: far less likely to cause faults (a
			// fault needs the full wire width covered).
			{Type: MissingMaterial, Layer: Metal1, Density: 3.0, D0: 1.1, Dmax: 10},
			{Type: MissingMaterial, Layer: Metal2, Density: 2.5, D0: 1.4, Dmax: 10},
			{Type: MissingMaterial, Layer: Poly, Density: 1.2, D0: 0.9, Dmax: 6},
			// Oxide and junction pinholes.
			{Type: GateOxidePinhole, Layer: Poly, Density: 2.2, D0: 0.3, Dmax: 1},
			{Type: JunctionPinhole, Layer: NDiff, Density: 1.4, D0: 0.3, Dmax: 1},
			{Type: ThickOxidePinhole, Layer: Metal1, Density: 0.5, D0: 0.3, Dmax: 1},
			// Parasitic contacts and parasitic devices.
			{Type: ExtraContact, Layer: Contact, Density: 0.8, D0: 0.4, Dmax: 2},
			{Type: ExtraPoly, Layer: Poly, Density: 0.6, D0: 1.0, Dmax: 6},
		},
		ShortRes: map[Layer]float64{
			Metal1: 0.2,
			Metal2: 0.2,
			Poly:   25, // polysilicon bridge
			NDiff:  60, // diffusion bridge
			PDiff:  80,
		},
		ExtraContactRes:  2,
		PinholeRes:       2000,
		ShortedDeviceRes: 8,
		NonCatRes:        500,
		NonCatCap:        1e-15,
	}
}

// TotalDensity returns the sum of all mechanism densities; used to pick a
// mechanism proportionally during Monte Carlo sprinkling.
func (p *Process) TotalDensity() float64 {
	var s float64
	for _, d := range p.Defects {
		s += d.Density
	}
	return s
}

// PickDefect selects a defect mechanism with probability proportional to
// its density, using rng.
func (p *Process) PickDefect(rng *rand.Rand) DefectSpec {
	return p.Defects[p.PickIndex(rng.Float64()*p.TotalDensity())]
}

// PickIndex returns the index into p.Defects of the mechanism that u
// selects, for u drawn uniformly from [0, TotalDensity()).
func (p *Process) PickIndex(u float64) int {
	for i := range p.Defects {
		u -= p.Defects[i].Density
		if u <= 0 {
			return i
		}
	}
	return len(p.Defects) - 1
}

// SampleDiameter draws a defect diameter from the classical spot-defect
// size distribution: linear rise below the peak D0 and a 1/x³ tail above
// it, truncated at Dmax. The distribution is sampled by inversion.
func (s DefectSpec) SampleDiameter(rng *rand.Rand) float64 {
	// Split probability mass: rise carries pRise, tail carries 1-pRise.
	// For f(x) = 2x/D0² on (0,D0] and f(x) = 2D0²/x³ on (D0,∞) the mass
	// below the peak is 1/2 of total before truncation; keep that split.
	const pRise = 0.5
	u := rng.Float64()
	if u < pRise {
		// CDF of rise: (x/D0)², inverse: D0*sqrt(u').
		return s.D0 * math.Sqrt(u/pRise)
	}
	// Tail CDF on (D0, Dmax]: (1 - D0²/x²)/(1 - D0²/Dmax²).
	v := (u - pRise) / (1 - pRise)
	k := 1 - s.D0*s.D0/(s.Dmax*s.Dmax)
	x := s.D0 / math.Sqrt(1-v*k)
	if x > s.Dmax {
		x = s.Dmax
	}
	return x
}
