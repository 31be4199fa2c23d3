// Package layout models a mask layout at the level of detail the defect
// simulator needs: rectangles on process layers, each tagged with the
// electrical net it belongs to and its role (routing wire, transistor gate
// area, source/drain diffusion, contact cut). Macro cells construct their
// layouts procedurally with the Builder.
//
// Coordinates are in micrometres. The layout is deliberately simple — pure
// Manhattan rectangles — because the defect-to-fault mapping only depends
// on which nets are adjacent on which layer, at what spacing, over what
// area; that is exactly the information VLASIC consumed from the real mask
// data in the paper.
package layout

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/process"
)

// Role describes what a shape is, which determines which faults a defect
// on it can cause.
type Role int

const (
	// Wire is plain routing: extra material bridges it to neighbours,
	// missing material can sever it.
	Wire Role = iota
	// Gate is the channel region of a MOS device (poly over diffusion):
	// gate-oxide pinholes strike here; missing poly shorts the device.
	Gate
	// SDRegion is a source or drain diffusion region of a device:
	// junction pinholes strike here.
	SDRegion
	// Cut is a contact or via connecting two layers of the same net.
	Cut
	// WellRegion is an n-well boundary; informational.
	WellRegion
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Wire:
		return "wire"
	case Gate:
		return "gate"
	case SDRegion:
		return "sd"
	case Cut:
		return "cut"
	case WellRegion:
		return "well"
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// Shape is one rectangle of one net on one layer.
type Shape struct {
	Layer  process.Layer
	Rect   geom.Rect
	Net    string // electrical net name ("" for well regions)
	Role   Role
	Device string // owning device for Gate/SDRegion shapes
	// Bulk is the bulk net a junction pinhole on this SDRegion leaks to
	// (substrate for NMOS, well for PMOS); only set for SDRegion/Gate.
	Bulk string
	// IsPMOS marks Gate/SDRegion shapes of PMOS devices.
	IsPMOS bool
}

// Cell is a complete macro-cell layout.
type Cell struct {
	Name   string
	Shapes []Shape
	// Ports lists the nets that leave the cell (shared with other macros
	// or with the circuit boundary). Faults touching only non-port nets
	// are "local" faults in the paper's 27.8 % sense.
	Ports map[string]bool

	bounds   geom.Rect
	hasBound bool
	index    [process.NumLayers]*geom.Index
	idMap    [process.NumLayers][]int // index handle -> Shapes position
}

// NewCell returns an empty cell.
func NewCell(name string) *Cell {
	return &Cell{Name: name, Ports: map[string]bool{}}
}

// Add appends a shape; the canonical rectangle form is enforced.
func (c *Cell) Add(s Shape) {
	s.Rect = geom.NewRect(s.Rect.X0, s.Rect.Y0, s.Rect.X1, s.Rect.Y1)
	c.Shapes = append(c.Shapes, s)
	if !c.hasBound {
		c.bounds = s.Rect
		c.hasBound = true
	} else {
		c.bounds = c.bounds.Union(s.Rect)
	}
	c.index = [process.NumLayers]*geom.Index{} // invalidate
}

// MarkPort declares nets as cell ports (externally shared).
func (c *Cell) MarkPort(nets ...string) {
	for _, n := range nets {
		c.Ports[n] = true
	}
}

// Bounds returns the bounding box of all shapes.
func (c *Cell) Bounds() geom.Rect {
	if !c.hasBound {
		return geom.Rect{}
	}
	return c.bounds
}

// Area returns the bounding-box area of the cell in µm².
func (c *Cell) Area() float64 { return c.Bounds().Area() }

// LayerArea returns the summed shape area on one layer (overlaps counted
// twice; adequate for density statistics).
func (c *Cell) LayerArea(l process.Layer) float64 {
	var a float64
	for _, s := range c.Shapes {
		if s.Layer == l {
			a += s.Rect.Area()
		}
	}
	return a
}

// Nets returns the sorted list of distinct net names in the cell.
func (c *Cell) Nets() []string {
	set := map[string]bool{}
	for _, s := range c.Shapes {
		if s.Net != "" {
			set[s.Net] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// buildIndex lazily constructs the per-layer spatial index.
func (c *Cell) buildIndex(l process.Layer) {
	if c.index[l] != nil {
		return
	}
	b := c.Bounds().Expand(1)
	ix := geom.NewIndex(b, 1024)
	var ids []int
	for i, s := range c.Shapes {
		if s.Layer == l {
			ix.Insert(s.Rect)
			ids = append(ids, i)
		}
	}
	c.index[l] = ix
	c.idMap[l] = ids
}

// QueryDisk appends to dst the positions (into c.Shapes) of all shapes on
// layer l intersecting the disk, in ascending order, and returns the
// extended slice.
func (c *Cell) QueryDisk(dst []int, l process.Layer, d geom.Disk) []int {
	c.buildIndex(l)
	return c.positions(len(dst), l, c.index[l].QueryDisk(dst, d))
}

// QueryRect is QueryDisk for the shapes on layer l intersecting r
// (touching edges count).
func (c *Cell) QueryRect(dst []int, l process.Layer, r geom.Rect) []int {
	c.buildIndex(l)
	return c.positions(len(dst), l, c.index[l].QueryRect(dst, r))
}

// positions maps the layer-l index handles in hits[n0:] to shape
// positions and sorts them.
func (c *Cell) positions(n0 int, l process.Layer, hits []int) []int {
	tail := hits[n0:]
	for i, h := range tail {
		tail[i] = c.idMap[l][h]
	}
	slices.Sort(tail)
	return hits
}

// Builder provides a small DSL for constructing macro layouts.
type Builder struct {
	C *Cell
	// DefaultWidth is the wire width used by HWire/VWire, in µm.
	DefaultWidth float64
}

// NewBuilder returns a builder for a fresh cell. Default wire width 1 µm.
func NewBuilder(name string) *Builder {
	return &Builder{C: NewCell(name), DefaultWidth: 1}
}

// HWire adds a horizontal routing wire on layer for net, from x0 to x1 at
// vertical centre y.
func (b *Builder) HWire(l process.Layer, net string, x0, x1, y float64) {
	w := b.DefaultWidth
	b.C.Add(Shape{Layer: l, Net: net, Role: Wire, Rect: geom.NewRect(x0, y-w/2, x1, y+w/2)})
}

// VWire adds a vertical routing wire on layer for net, from y0 to y1 at
// horizontal centre x.
func (b *Builder) VWire(l process.Layer, net string, x, y0, y1 float64) {
	w := b.DefaultWidth
	b.C.Add(Shape{Layer: l, Net: net, Role: Wire, Rect: geom.NewRect(x-w/2, y0, x+w/2, y1)})
}

// RectWire adds an arbitrary rectangle of routing.
func (b *Builder) RectWire(l process.Layer, net string, r geom.Rect) {
	b.C.Add(Shape{Layer: l, Net: net, Role: Wire, Rect: r})
}

// CutAt adds a contact/via cut of the given kind (process.Contact or
// process.Via) for net at centre (x, y).
func (b *Builder) CutAt(kind process.Layer, net string, x, y float64) {
	const cut = 0.8
	b.C.Add(Shape{Layer: kind, Net: net, Role: Cut, Rect: geom.NewRect(x-cut/2, y-cut/2, x+cut/2, y+cut/2)})
}

// MOSOpts configures MOS placement.
type MOSOpts struct {
	// W and L are channel width and length in µm.
	W, L float64
	// PMOS selects a PMOS device (diffusion on PDiff, bulk = well net).
	PMOS bool
	// Bulk is the bulk net (defaults to "vss" for NMOS, "vdd" for PMOS).
	Bulk string
}

// MOS places a transistor with its channel centred at (x, y): a horizontal
// diffusion bar with the gate poly crossing vertically. It creates the
// source/drain diffusion regions, the gate area, a poly stub for the gate
// connection, and metal1 contacts on source and drain.
func (b *Builder) MOS(name, drain, gate, source string, x, y float64, o MOSOpts) {
	if o.W <= 0 {
		o.W = 4
	}
	if o.L <= 0 {
		o.L = 1
	}
	diff := process.NDiff
	bulk := o.Bulk
	if o.PMOS {
		diff = process.PDiff
		if bulk == "" {
			bulk = "vdd"
		}
	} else if bulk == "" {
		bulk = "vss"
	}
	const sd = 2.0     // source/drain extension, µm
	const overhang = 1 // poly gate overhang beyond diffusion
	// Source (left) and drain (right) diffusion.
	b.C.Add(Shape{Layer: diff, Net: source, Role: SDRegion, Device: name, Bulk: bulk, IsPMOS: o.PMOS,
		Rect: geom.NewRect(x-o.L/2-sd, y-o.W/2, x-o.L/2, y+o.W/2)})
	b.C.Add(Shape{Layer: diff, Net: drain, Role: SDRegion, Device: name, Bulk: bulk, IsPMOS: o.PMOS,
		Rect: geom.NewRect(x+o.L/2, y-o.W/2, x+o.L/2+sd, y+o.W/2)})
	// Gate area: poly over the channel.
	b.C.Add(Shape{Layer: process.Poly, Net: gate, Role: Gate, Device: name, Bulk: bulk, IsPMOS: o.PMOS,
		Rect: geom.NewRect(x-o.L/2, y-o.W/2, x+o.L/2, y+o.W/2)})
	// Poly overhang stubs above and below the channel for connection.
	b.C.Add(Shape{Layer: process.Poly, Net: gate, Role: Wire,
		Rect: geom.NewRect(x-o.L/2, y+o.W/2, x+o.L/2, y+o.W/2+overhang)})
	b.C.Add(Shape{Layer: process.Poly, Net: gate, Role: Wire,
		Rect: geom.NewRect(x-o.L/2, y-o.W/2-overhang, x+o.L/2, y-o.W/2)})
	// Contacts on source and drain.
	b.CutAt(process.Contact, source, x-o.L/2-sd/2, y)
	b.CutAt(process.Contact, drain, x+o.L/2+sd/2, y)
	if o.PMOS {
		well := geom.NewRect(x-o.L/2-sd-1.5, y-o.W/2-1.5, x+o.L/2+sd+1.5, y+o.W/2+1.5)
		b.C.Add(Shape{Layer: process.NWell, Role: WellRegion, Rect: well})
	}
}

// Resistor places a serpentine-free polysilicon resistor bar between nets a
// and b: a poly wire of the given length and width whose two halves belong
// to the two terminal nets (a defect bridging the halves shortens the
// resistor; a missing-material defect opens it).
func (b *Builder) Resistor(name, a, bn string, x, y, length, width float64) {
	half := length / 2
	b.C.Add(Shape{Layer: process.Poly, Net: a, Role: Wire, Device: name,
		Rect: geom.NewRect(x, y-width/2, x+half, y+width/2)})
	b.C.Add(Shape{Layer: process.Poly, Net: bn, Role: Wire, Device: name,
		Rect: geom.NewRect(x+half, y-width/2, x+length, y+width/2)})
}
