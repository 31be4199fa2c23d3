package layout

import (
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/process"
)

func TestCellBoundsAndArea(t *testing.T) {
	c := NewCell("t")
	if !c.Bounds().Empty() {
		t.Fatal("empty cell should have empty bounds")
	}
	c.Add(Shape{Layer: process.Metal1, Net: "a", Rect: geom.NewRect(0, 0, 10, 1)})
	c.Add(Shape{Layer: process.Metal1, Net: "b", Rect: geom.NewRect(0, 3, 10, 4)})
	if got := c.Bounds(); got != geom.NewRect(0, 0, 10, 4) {
		t.Fatalf("Bounds = %v", got)
	}
	if got := c.Area(); got != 40 {
		t.Fatalf("Area = %g", got)
	}
	if got := c.LayerArea(process.Metal1); got != 20 {
		t.Fatalf("LayerArea = %g", got)
	}
	if got := c.LayerArea(process.Poly); got != 0 {
		t.Fatalf("poly LayerArea = %g", got)
	}
}

func TestAddCanonicalises(t *testing.T) {
	c := NewCell("t")
	c.Add(Shape{Layer: process.Poly, Net: "x", Rect: geom.Rect{X0: 5, Y0: 5, X1: 1, Y1: 1}})
	if !c.Shapes[0].Rect.Valid() {
		t.Fatal("Add must canonicalise rectangles")
	}
}

func TestNetsSortedUnique(t *testing.T) {
	c := NewCell("t")
	c.Add(Shape{Layer: process.Metal1, Net: "b", Rect: geom.NewRect(0, 0, 1, 1)})
	c.Add(Shape{Layer: process.Metal1, Net: "a", Rect: geom.NewRect(2, 0, 3, 1)})
	c.Add(Shape{Layer: process.Poly, Net: "a", Rect: geom.NewRect(4, 0, 5, 1)})
	c.Add(Shape{Layer: process.NWell, Net: "", Rect: geom.NewRect(0, 0, 9, 9)})
	nets := c.Nets()
	if len(nets) != 2 || nets[0] != "a" || nets[1] != "b" {
		t.Fatalf("Nets = %v", nets)
	}
}

func TestQueryDiskPerLayer(t *testing.T) {
	c := NewCell("t")
	c.Add(Shape{Layer: process.Metal1, Net: "a", Rect: geom.NewRect(0, 0, 10, 1)}) // 0
	c.Add(Shape{Layer: process.Metal1, Net: "b", Rect: geom.NewRect(0, 3, 10, 4)}) // 1
	c.Add(Shape{Layer: process.Poly, Net: "g", Rect: geom.NewRect(0, 0, 10, 4)})   // 2
	d := geom.Disk{C: geom.Point{X: 5, Y: 2}, R: 1.5}
	m1 := c.QueryDisk(nil, process.Metal1, d)
	if len(m1) != 2 || m1[0] != 0 || m1[1] != 1 {
		t.Fatalf("metal1 hits = %v", m1)
	}
	po := c.QueryDisk(nil, process.Poly, d)
	if len(po) != 1 || po[0] != 2 {
		t.Fatalf("poly hits = %v", po)
	}
	// A query appends after what the buffer already holds.
	both := c.QueryDisk(c.QueryDisk(nil, process.Poly, d), process.Metal1, d)
	if len(both) != 3 || both[0] != 2 || both[1] != 0 || both[2] != 1 {
		t.Fatalf("poly then metal1 hits = %v", both)
	}
	// Index invalidation after Add.
	c.Add(Shape{Layer: process.Metal1, Net: "c", Rect: geom.NewRect(4, 1.6, 6, 2.4)})
	m1 = c.QueryDisk(nil, process.Metal1, d)
	if len(m1) != 3 {
		t.Fatalf("after add, metal1 hits = %v", m1)
	}
}

func TestMarkPort(t *testing.T) {
	c := NewCell("t")
	c.MarkPort("clk1", "vdd")
	if !c.Ports["clk1"] || !c.Ports["vdd"] || c.Ports["x"] {
		t.Fatalf("Ports = %v", c.Ports)
	}
}

func TestBuilderWires(t *testing.T) {
	b := NewBuilder("w")
	b.DefaultWidth = 2
	b.HWire(process.Metal1, "n1", 0, 10, 5)
	b.VWire(process.Metal2, "n2", 3, 0, 8)
	if len(b.C.Shapes) != 2 {
		t.Fatalf("want 2 shapes, got %d", len(b.C.Shapes))
	}
	h := b.C.Shapes[0]
	if h.Rect != geom.NewRect(0, 4, 10, 6) || h.Net != "n1" || h.Role != Wire {
		t.Fatalf("HWire shape = %+v", h)
	}
	v := b.C.Shapes[1]
	if v.Rect != geom.NewRect(2, 0, 4, 8) || v.Layer != process.Metal2 {
		t.Fatalf("VWire shape = %+v", v)
	}
}

func TestBuilderMOSNMOS(t *testing.T) {
	b := NewBuilder("m")
	b.MOS("m1", "d", "g", "s", 0, 0, MOSOpts{W: 4, L: 1})
	var gates, sds, cuts, polyWires int
	for _, s := range b.C.Shapes {
		switch s.Role {
		case Gate:
			gates++
			if s.Layer != process.Poly || s.Net != "g" || s.Device != "m1" || s.Bulk != "vss" || s.IsPMOS {
				t.Fatalf("gate shape wrong: %+v", s)
			}
			if s.Rect.W() != 1 || s.Rect.H() != 4 {
				t.Fatalf("gate geometry: %v", s.Rect)
			}
		case SDRegion:
			sds++
			if s.Layer != process.NDiff || s.Device != "m1" {
				t.Fatalf("sd shape wrong: %+v", s)
			}
		case Cut:
			cuts++
		case Wire:
			if s.Layer == process.Poly {
				polyWires++
			}
		}
	}
	if gates != 1 || sds != 2 || cuts != 2 || polyWires != 2 {
		t.Fatalf("counts gates=%d sds=%d cuts=%d polyStubs=%d", gates, sds, cuts, polyWires)
	}
}

func TestBuilderMOSPMOSDefaults(t *testing.T) {
	b := NewBuilder("m")
	b.MOS("mp", "d", "g", "s", 0, 0, MOSOpts{PMOS: true}) // default W/L
	var well bool
	for _, s := range b.C.Shapes {
		if s.Role == WellRegion {
			well = true
		}
		if s.Role == Gate {
			if !s.IsPMOS || s.Bulk != "vdd" {
				t.Fatalf("pmos gate: %+v", s)
			}
		}
		if s.Role == SDRegion && s.Layer != process.PDiff {
			t.Fatalf("pmos sd on %v", s.Layer)
		}
	}
	if !well {
		t.Fatal("PMOS must emit an n-well region")
	}
}

func TestBuilderResistor(t *testing.T) {
	b := NewBuilder("r")
	b.Resistor("r1", "a", "b", 0, 0, 20, 2)
	if len(b.C.Shapes) != 2 {
		t.Fatalf("resistor shapes = %d", len(b.C.Shapes))
	}
	s0, s1 := b.C.Shapes[0], b.C.Shapes[1]
	if s0.Net != "a" || s1.Net != "b" {
		t.Fatalf("terminal nets %q %q", s0.Net, s1.Net)
	}
	if s0.Rect.X1 != s1.Rect.X0 {
		t.Fatal("halves must abut")
	}
	if s0.Layer != process.Poly || s1.Layer != process.Poly {
		t.Fatal("resistor body must be poly")
	}
}

// Property: QueryDisk only ever returns shapes on the requested layer that
// genuinely intersect the disk, and it returns all of them.
func TestQuickQueryDiskComplete(t *testing.T) {
	f := func(seed int64) bool {
		c := NewCell("q")
		rng := newRng(seed)
		for i := 0; i < 40; i++ {
			x, y := rng()*100, rng()*100
			c.Add(Shape{
				Layer: process.Layer(int(rng() * 3)), // ndiff/pdiff/poly
				Net:   "n",
				Rect:  geom.NewRect(x, y, x+rng()*8+0.1, y+rng()*8+0.1),
			})
		}
		d := geom.Disk{C: geom.Point{X: rng() * 100, Y: rng() * 100}, R: rng()*10 + 0.1}
		for l := process.Layer(0); l < 3; l++ {
			got := map[int]bool{}
			for _, id := range c.QueryDisk(nil, l, d) {
				got[id] = true
			}
			for i, s := range c.Shapes {
				want := s.Layer == l && d.IntersectsRect(s.Rect)
				if got[i] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// newRng returns a tiny deterministic float64 generator in [0,1).
func newRng(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%1e9) / 1e9
	}
}
