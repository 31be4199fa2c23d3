// Package defectsim is the reproduction's equivalent of VLASIC (Walker &
// Director): a Monte Carlo catastrophic spot-defect simulator. Defects —
// disks of extra or missing material, oxide/junction pinholes, parasitic
// contacts and parasitic devices — are sprinkled over a macro cell's
// layout with process-defined densities and size statistics; geometric
// analysis decides whether each defect causes a circuit-level fault and,
// if so, extracts the fault record (which nets short, which net opens and
// which terminals are split away, which device is struck).
package defectsim

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/process"
)

// Result is the outcome of a sprinkle run.
type Result struct {
	// Defects is the number of defects sprinkled.
	Defects int
	// Faults holds one record per defect that caused a fault.
	Faults []faults.Fault
}

// FaultRate returns the fraction of defects that caused faults.
func (r *Result) FaultRate() float64 {
	if r.Defects == 0 {
		return 0
	}
	return float64(len(r.Faults)) / float64(r.Defects)
}

// Simulator sprinkles defects over one cell. It keeps scratch buffers
// between draws, so one Simulator must be used by one goroutine at a time.
type Simulator struct {
	Cell *layout.Cell
	Proc *process.Process
	// Metrics, when non-nil, counts sprinkled defects (CtrSprinkleDraws).
	Metrics *obs.Metrics

	graph *netGraph
	// hits and hits2 receive disk queries; two, because some extractors
	// query a second layer inside the loop over the first one's hits.
	hits, hits2 []int
	// parent is openFarTerminals' union-find and far its terminal list.
	parent []int
	far    []faults.Terminal
}

// cancelEvery is how many draws Sprinkle makes between checks of its
// context.
const cancelEvery = 1024

// New prepares a simulator for the cell (building the connectivity graph
// once).
func New(cell *layout.Cell, proc *process.Process) *Simulator {
	return &Simulator{Cell: cell, Proc: proc, graph: buildNetGraph(cell)}
}

// Sprinkle drops n defects with the given seed and extracts the faults.
// Cancelling ctx aborts the Monte Carlo within cancelEvery draws; the
// partial result is discarded and ctx.Err() returned.
func (s *Simulator) Sprinkle(ctx context.Context, n int, seed int64) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(seed))
	res := &Result{Defects: n}
	b := s.Cell.Bounds().Expand(1)
	total := s.Proc.TotalDensity()
	for i := 0; i < n; i++ {
		if i%cancelEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s.Metrics.Add(obs.CtrSprinkleDraws, int64(min(cancelEvery, n-i)))
		}
		spec := &s.Proc.Defects[s.Proc.PickIndex(rng.Float64()*total)]
		d := geom.Disk{
			C: geom.Point{
				X: b.X0 + rng.Float64()*b.W(),
				Y: b.Y0 + rng.Float64()*b.H(),
			},
			R: spec.SampleDiameter(rng) / 2,
		}
		if f, ok := s.extract(spec, d); ok {
			res.Faults = append(res.Faults, f)
		}
	}
	return res, nil
}

// extract maps one defect to at most one circuit-level fault.
func (s *Simulator) extract(spec *process.DefectSpec, d geom.Disk) (faults.Fault, bool) {
	switch spec.Type {
	case process.ExtraMaterial:
		return s.extractBridge(spec.Layer, d)
	case process.MissingMaterial:
		return s.extractMissing(spec.Layer, d)
	case process.GateOxidePinhole:
		return s.extractGOS(d)
	case process.JunctionPinhole:
		return s.extractJunction(d)
	case process.ThickOxidePinhole:
		return s.extractThickOx(d)
	case process.ExtraContact:
		return s.extractExtraContact(d)
	case process.ExtraPoly:
		return s.extractNewDevice(d)
	}
	return faults.Fault{}, false
}

// markLocal sets Local on f given the nets it touches.
func (s *Simulator) markLocal(f faults.Fault, nets []string) faults.Fault {
	f.Local = true
	for _, n := range nets {
		if s.Cell.Ports[n] {
			f.Local = false
		}
	}
	return f
}

// extractBridge handles extra conductor material: a short among all
// distinct nets whose shapes the disk touches on that layer. A defect
// confined to the body of a single resistor (touching only that device's
// wire shapes) changes its resistance parametrically but does not change
// connectivity — it is not a catastrophic fault and is skipped, exactly
// as VLASIC reports only connectivity changes.
func (s *Simulator) extractBridge(l process.Layer, d geom.Disk) (faults.Fault, bool) {
	var seen [8]string
	nets := seen[:0]
	sameResistor := true
	resistorDev := ""
	s.hits = s.Cell.QueryDisk(s.hits[:0], l, d)
	for _, idx := range s.hits {
		sh := &s.Cell.Shapes[idx]
		if sh.Net == "" {
			continue
		}
		if !slices.Contains(nets, sh.Net) {
			nets = append(nets, sh.Net)
		}
		if sh.Role != layout.Wire || sh.Device == "" {
			sameResistor = false
		} else if resistorDev == "" {
			resistorDev = sh.Device
		} else if resistorDev != sh.Device {
			sameResistor = false
		}
	}
	if len(nets) < 2 {
		return faults.Fault{}, false
	}
	if sameResistor && resistorDev != "" {
		return faults.Fault{}, false
	}
	out := slices.Clone(nets)
	slices.Sort(out)
	f := faults.Fault{Kind: faults.Short, Nets: out, Res: s.Proc.ShortRes[l]}
	return s.markLocal(f, out), true
}

// extractMissing handles missing conductor material: a shorted device when
// the disk removes a full gate, otherwise an open when it severs a wire.
func (s *Simulator) extractMissing(l process.Layer, d geom.Disk) (faults.Fault, bool) {
	s.hits = s.Cell.QueryDisk(s.hits[:0], l, d)
	// Gate removal first: shorted device.
	for _, idx := range s.hits {
		sh := &s.Cell.Shapes[idx]
		if sh.Role == layout.Gate && d.SpansWidth(sh.Rect) {
			f := faults.Fault{Kind: faults.ShortedDevice, Device: sh.Device, Res: s.Proc.ShortedDeviceRes}
			return s.markLocal(f, []string{sh.Net}), true
		}
	}
	// Wire severing: the first severed shape defines the open.
	for _, idx := range s.hits {
		sh := &s.Cell.Shapes[idx]
		if sh.Role != layout.Wire || !d.SpansWidth(sh.Rect) {
			continue
		}
		far, ok := s.openFarTerminals(sh.Net, idx, d)
		if !ok {
			continue // severed a stub: electrically irrelevant
		}
		f := faults.Fault{Kind: faults.Open, Nets: []string{sh.Net}, FarTerminals: far}
		return s.markLocal(f, []string{sh.Net}), true
	}
	return faults.Fault{}, false
}

// openFarTerminals computes the terminals split from net when the defect d
// severs the wire shape at index severed. The severed wire is replaced by
// its two halves on either side of the defect; the half (and anything
// connected through it) containing the net's earliest-added shape keeps
// the net name — by layout convention the first shape of a port net is the
// port entry, so the stimulus side survives. Returns ok=false when the cut
// isolates no terminals.
func (s *Simulator) openFarTerminals(net string, severed int, d geom.Disk) ([]faults.Terminal, bool) {
	r := s.Cell.Shapes[severed].Rect
	var halfA, halfB geom.Rect
	if r.W() >= r.H() {
		halfA = geom.NewRect(r.X0, r.Y0, clampLo(d.C.X-d.R, r.X0, r.X1), r.Y1)
		halfB = geom.NewRect(clampLo(d.C.X+d.R, r.X0, r.X1), r.Y0, r.X1, r.Y1)
	} else {
		halfA = geom.NewRect(r.X0, r.Y0, r.X1, clampLo(d.C.Y-d.R, r.Y0, r.Y1))
		halfB = geom.NewRect(r.X0, clampLo(d.C.Y+d.R, r.Y0, r.Y1), r.X1, r.Y1)
	}

	g := s.graph
	n := g.components(net, severed)
	// Union-find over the components plus the two halves, pa and pb.
	pa, pb := n, n+1
	s.parent = s.parent[:0]
	for i := 0; i < n+2; i++ {
		s.parent = append(s.parent, i)
	}
	// Reconnect neighbours of the severed shape to whichever half they
	// touch. A neighbour spanning the cut re-merges both halves.
	for _, nb := range g.adj[severed] {
		nr := s.Cell.Shapes[nb].Rect
		if !halfA.Empty() && nr.Intersects(halfA) {
			s.union(g.lab[nb], pa)
		}
		if !halfB.Empty() && nr.Intersects(halfB) {
			s.union(g.lab[nb], pb)
		}
	}
	if s.find(pa) == s.find(pb) {
		return nil, false // a redundant path spans the cut: no open
	}
	// Anchor: the net's earliest shape, or half A when the severed shape
	// itself is earliest.
	ids := g.byNet[net]
	near := s.find(pa)
	if len(ids) > 0 && ids[0] != severed {
		near = s.find(g.lab[ids[0]])
	}
	far := s.far[:0]
	for _, idx := range ids {
		if dev := s.Cell.Shapes[idx].Device; idx != severed && dev != "" && s.find(g.lab[idx]) != near {
			far = append(far, faults.Terminal{Device: dev, Net: net})
		}
	}
	s.far = far
	if len(far) == 0 {
		return nil, false
	}
	slices.SortFunc(far, func(a, b faults.Terminal) int { return strings.Compare(a.Device, b.Device) })
	return slices.Clone(slices.Compact(far)), true
}

// find returns the root of x in s.parent, halving the path on the way.
func (s *Simulator) find(x int) int {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

func (s *Simulator) union(a, b int) { s.parent[s.find(a)] = s.find(b) }

// clampLo clamps v into [lo, hi].
func clampLo(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// extractGOS handles gate-oxide pinholes: the disk must land on a gate.
func (s *Simulator) extractGOS(d geom.Disk) (faults.Fault, bool) {
	s.hits = s.Cell.QueryDisk(s.hits[:0], process.Poly, d)
	for _, idx := range s.hits {
		sh := &s.Cell.Shapes[idx]
		if sh.Role == layout.Gate {
			f := faults.Fault{Kind: faults.GOSPinhole, Device: sh.Device, Res: s.Proc.PinholeRes}
			return s.markLocal(f, []string{sh.Net}), true
		}
	}
	return faults.Fault{}, false
}

// extractJunction handles junction pinholes: the disk must land on a
// source/drain diffusion region; the leak goes to that device's bulk.
func (s *Simulator) extractJunction(d geom.Disk) (faults.Fault, bool) {
	for _, l := range []process.Layer{process.NDiff, process.PDiff} {
		s.hits = s.Cell.QueryDisk(s.hits[:0], l, d)
		for _, idx := range s.hits {
			sh := &s.Cell.Shapes[idx]
			if sh.Role != layout.SDRegion || sh.Net == sh.Bulk || sh.Bulk == "" {
				continue
			}
			nets := []string{sh.Net, sh.Bulk}
			sort.Strings(nets)
			f := faults.Fault{Kind: faults.JunctionPinholeKind, Nets: nets, Res: s.Proc.PinholeRes}
			return s.markLocal(f, nets), true
		}
	}
	return faults.Fault{}, false
}

// extractThickOx handles field-oxide pinholes: a metal1 shape shorted to a
// conductor routed beneath it (or to the substrate when nothing is below).
func (s *Simulator) extractThickOx(d geom.Disk) (faults.Fault, bool) {
	s.hits = s.Cell.QueryDisk(s.hits[:0], process.Metal1, d)
	for _, mIdx := range s.hits {
		m := &s.Cell.Shapes[mIdx]
		if m.Net == "" {
			continue
		}
		for _, l := range []process.Layer{process.Poly, process.NDiff, process.PDiff} {
			s.hits2 = s.Cell.QueryDisk(s.hits2[:0], l, d)
			for _, uIdx := range s.hits2 {
				u := &s.Cell.Shapes[uIdx]
				if u.Net == "" || u.Net == m.Net || !u.Rect.Intersects(m.Rect) {
					continue
				}
				nets := []string{m.Net, u.Net}
				sort.Strings(nets)
				f := faults.Fault{Kind: faults.ThickOxPinhole, Nets: nets, Res: s.Proc.PinholeRes}
				return s.markLocal(f, nets), true
			}
		}
		// Nothing beneath: leak to the substrate.
		if m.Net == "vss" {
			continue
		}
		nets := []string{m.Net, "vss"}
		sort.Strings(nets)
		f := faults.Fault{Kind: faults.ThickOxPinhole, Nets: nets, Res: s.Proc.PinholeRes}
		return s.markLocal(f, nets), true
	}
	return faults.Fault{}, false
}

// extractExtraContact handles parasitic vertical contacts: metal1 over
// poly/diffusion or metal2 over metal1, different nets, overlapping under
// the disk.
func (s *Simulator) extractExtraContact(d geom.Disk) (faults.Fault, bool) {
	pairs := [][2]process.Layer{
		{process.Metal1, process.Poly},
		{process.Metal1, process.NDiff},
		{process.Metal1, process.PDiff},
		{process.Metal2, process.Metal1},
	}
	for _, p := range pairs {
		s.hits = s.Cell.QueryDisk(s.hits[:0], p[0], d)
		for _, aIdx := range s.hits {
			a := &s.Cell.Shapes[aIdx]
			if a.Net == "" {
				continue
			}
			s.hits2 = s.Cell.QueryDisk(s.hits2[:0], p[1], d)
			for _, bIdx := range s.hits2 {
				b := &s.Cell.Shapes[bIdx]
				if b.Net == "" || b.Net == a.Net || !a.Rect.Intersects(b.Rect) {
					continue
				}
				nets := []string{a.Net, b.Net}
				sort.Strings(nets)
				f := faults.Fault{Kind: faults.ExtraContactKind, Nets: nets, Res: s.Proc.ExtraContactRes}
				return s.markLocal(f, nets), true
			}
		}
	}
	return faults.Fault{}, false
}

// extractNewDevice handles extra poly crossing a diffusion region: a
// parasitic series transistor at that device terminal, gated by whichever
// poly net the defect also touches (floating otherwise).
func (s *Simulator) extractNewDevice(d geom.Disk) (faults.Fault, bool) {
	for _, l := range []process.Layer{process.NDiff, process.PDiff} {
		s.hits = s.Cell.QueryDisk(s.hits[:0], l, d)
		for _, idx := range s.hits {
			sh := &s.Cell.Shapes[idx]
			if sh.Role != layout.SDRegion || !d.SpansWidth(sh.Rect) {
				continue
			}
			gate := ""
			s.hits2 = s.Cell.QueryDisk(s.hits2[:0], process.Poly, d)
			for _, pIdx := range s.hits2 {
				p := &s.Cell.Shapes[pIdx]
				if p.Net != "" && p.Net != sh.Net {
					gate = p.Net
					break
				}
			}
			f := faults.Fault{
				Kind: faults.NewDevice, Nets: []string{sh.Net},
				Device:       sh.Device,
				GateNet:      gate,
				FarTerminals: []faults.Terminal{{Device: sh.Device, Net: sh.Net}},
			}
			return s.markLocal(f, []string{sh.Net, gate}), true
		}
	}
	return faults.Fault{}, false
}
