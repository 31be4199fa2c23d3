package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRectCanonical(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r.X0 != 1 || r.Y0 != 2 || r.X1 != 5 || r.Y1 != 7 {
		t.Fatalf("not canonical: %v", r)
	}
	if !r.Valid() {
		t.Fatal("canonical rect must be valid")
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(0, 0, 4, 2)
	if got := r.W(); got != 4 {
		t.Errorf("W = %g, want 4", got)
	}
	if got := r.H(); got != 2 {
		t.Errorf("H = %g, want 2", got)
	}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %g, want 8", got)
	}
	if c := r.Center(); c != (Point{2, 1}) {
		t.Errorf("Center = %v, want (2,1)", c)
	}
	if r.Empty() {
		t.Error("non-degenerate rect reported empty")
	}
	if !NewRect(1, 1, 1, 5).Empty() {
		t.Error("zero-width rect should be empty")
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{1, 1}, true},
		{Point{0, 0}, true}, // boundary counts
		{Point{2, 2}, true}, // boundary counts
		{Point{3, 1}, false},
		{Point{-0.1, 1}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 6, 6)
	got, ok := a.Intersect(b)
	if !ok || got != NewRect(2, 2, 4, 4) {
		t.Fatalf("Intersect = %v,%v", got, ok)
	}
	c := NewRect(5, 5, 6, 6)
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint rects reported intersecting")
	}
	// Touching edges intersect with zero area.
	d := NewRect(4, 0, 5, 4)
	if !a.Intersects(d) {
		t.Fatal("touching rects must intersect")
	}
	ov, ok := a.Intersect(d)
	if !ok || !ov.Empty() {
		t.Fatalf("touching overlap should be empty, got %v", ov)
	}
}

func TestRectExpandShrinkClamps(t *testing.T) {
	r := NewRect(0, 0, 2, 2)
	g := r.Expand(1)
	if g != NewRect(-1, -1, 3, 3) {
		t.Fatalf("Expand(1) = %v", g)
	}
	s := r.Expand(-2) // over-shrink: collapses to centre
	if !s.Empty() || !s.Valid() {
		t.Fatalf("over-shrunk rect must be empty+valid, got %v", s)
	}
	if c := s.Center(); c != (Point{1, 1}) {
		t.Fatalf("collapse centre = %v", c)
	}
}

func TestDiskRect(t *testing.T) {
	d := Disk{Point{0, 0}, 1}
	if !d.IntersectsRect(NewRect(0.5, -0.5, 2, 0.5)) {
		t.Error("disk should reach into rect")
	}
	if d.IntersectsRect(NewRect(0.8, 0.8, 2, 2)) {
		t.Error("corner rect at distance sqrt(1.28) should not intersect r=1 disk")
	}
	if !d.IntersectsRect(NewRect(0.6, 0.6, 2, 2)) {
		t.Error("corner at distance ~0.85 should intersect")
	}
	if !d.ContainsRect(NewRect(-0.5, -0.5, 0.5, 0.5)) {
		t.Error("small centred square should be contained")
	}
	if d.ContainsRect(NewRect(-0.9, -0.9, 0.9, 0.9)) {
		t.Error("corners at 1.27 must not be contained in r=1 disk")
	}
}

func TestDiskSpansWidth(t *testing.T) {
	// Horizontal wire of width (height) 1 from x=0..10.
	wire := NewRect(0, 0, 10, 1)
	if !(Disk{Point{5, 0.5}, 0.6}).SpansWidth(wire) {
		t.Error("r=0.6 disk centred on a width-1 wire must sever it")
	}
	if (Disk{Point{5, 0.5}, 0.4}).SpansWidth(wire) {
		t.Error("r=0.4 disk cannot span width 1")
	}
	// Off-centre vertically: needs to still cover both edges.
	if (Disk{Point{5, 0.9}, 0.55}).SpansWidth(wire) {
		t.Error("disk covering only top edge must not sever")
	}
	if !(Disk{Point{5, 0.9}, 1.0}).SpansWidth(wire) {
		t.Error("large off-centre disk severs the wire")
	}
	// Vertical wire.
	vw := NewRect(0, 0, 1, 10)
	if !(Disk{Point{0.5, 5}, 0.6}).SpansWidth(vw) {
		t.Error("vertical wire severed by centred disk")
	}
	if (Disk{Point{0.5, 5}, 0.3}).SpansWidth(vw) {
		t.Error("small disk cannot sever vertical wire")
	}
	// Disk entirely off the wire never spans.
	if (Disk{Point{5, 5}, 1}).SpansWidth(wire) {
		t.Error("remote disk must not sever")
	}
}

// Property: Intersect is symmetric, contained in both operands, and
// Intersects agrees with Intersect's ok.
func TestQuickIntersectProperties(t *testing.T) {
	f := func(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 int8) bool {
		a := NewRect(float64(ax0), float64(ay0), float64(ax1), float64(ay1))
		b := NewRect(float64(bx0), float64(by0), float64(bx1), float64(by1))
		ab, okAB := a.Intersect(b)
		ba, okBA := b.Intersect(a)
		if okAB != okBA || ab != ba {
			return false
		}
		if okAB != a.Intersects(b) {
			return false
		}
		if okAB {
			if !a.ContainsRect(ab) || !b.ContainsRect(ab) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Union contains both operands; Expand is monotone in area.
func TestQuickUnionExpand(t *testing.T) {
	f := func(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 int8, d uint8) bool {
		a := NewRect(float64(ax0), float64(ay0), float64(ax1), float64(ay1))
		b := NewRect(float64(bx0), float64(by0), float64(bx1), float64(by1))
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		g := a.Expand(float64(d))
		return g.ContainsRect(a) && g.Area() >= a.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a disk contains a rect => it intersects it; SpansWidth implies
// intersection.
func TestQuickDiskImplications(t *testing.T) {
	f := func(cx, cy int8, r uint8, x0, y0, x1, y1 int8) bool {
		d := Disk{Point{float64(cx), float64(cy)}, float64(r%50) + 0.5}
		rect := NewRect(float64(x0), float64(y0), float64(x1), float64(y1))
		if d.ContainsRect(rect) && !rect.Empty() && !d.IntersectsRect(rect) {
			return false
		}
		if d.SpansWidth(rect) && !d.IntersectsRect(rect) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexFindsAllIntersections(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := NewRect(0, 0, 1000, 1000)
	ix := NewIndex(bounds, 256)
	var rects []Rect
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 990
		y := rng.Float64() * 990
		r := NewRect(x, y, x+rng.Float64()*10+0.1, y+rng.Float64()*10+0.1)
		rects = append(rects, r)
		if id := ix.Insert(r); id != i {
			t.Fatalf("insert id = %d, want %d", id, i)
		}
	}
	if ix.Len() != 500 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for trial := 0; trial < 200; trial++ {
		d := Disk{Point{rng.Float64() * 1000, rng.Float64() * 1000}, rng.Float64()*20 + 0.1}
		got := map[int]bool{}
		for _, id := range ix.QueryDisk(nil, d) {
			if got[id] {
				t.Fatal("QueryDisk returned duplicate")
			}
			got[id] = true
		}
		for i, r := range rects {
			want := d.IntersectsRect(r)
			if got[i] != want {
				t.Fatalf("trial %d rect %d: got %v want %v (d=%v r=%v)", trial, i, got[i], want, d, r)
			}
		}
	}
}

func TestIndexQueryRectUnique(t *testing.T) {
	ix := NewIndex(NewRect(0, 0, 100, 100), 100)
	// A big rect spanning many cells must be reported exactly once.
	big := ix.Insert(NewRect(1, 1, 99, 99))
	ids := ix.QueryRect(nil, NewRect(0, 0, 100, 100))
	if len(ids) != 1 || ids[0] != big {
		t.Fatalf("unique query = %v", ids)
	}
	if r := ix.Rect(big); r != NewRect(1, 1, 99, 99) {
		t.Fatalf("Rect(%d) = %v", big, r)
	}
}

func TestIndexOutOfBoundsQuery(t *testing.T) {
	ix := NewIndex(NewRect(0, 0, 10, 10), 16)
	ix.Insert(NewRect(9, 9, 10, 10))
	// Query entirely outside bounds must not panic and clamps to edge cells.
	ids := ix.QueryRect(nil, NewRect(50, 50, 60, 60))
	if len(ids) != 0 {
		t.Fatalf("expected no hits, got %v", ids)
	}
	// Disk straddling the boundary still finds the corner shape.
	hits := ix.QueryDisk(nil, Disk{Point{10.5, 10.5}, 1.0})
	if len(hits) != 1 {
		t.Fatalf("boundary disk hits = %v", hits)
	}
}

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Fatalf("Dist = %g", d)
	}
	if p := (Point{1, 2}).Add(3, 4); p != (Point{4, 6}) {
		t.Fatalf("Add = %v", p)
	}
}
