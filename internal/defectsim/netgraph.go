package defectsim

import (
	"slices"

	"repro/internal/layout"
	"repro/internal/process"
)

// netGraph captures the geometric connectivity of a cell: which shapes of
// a net touch which, including vertical connections through contact/via
// cuts. The open-fault extractor removes a severed shape and computes the
// resulting connected components to find the terminals split away.
type netGraph struct {
	// adj[i] lists, in ascending order, the shape indices connected to
	// shape i.
	adj [][]int
	// byNet lists shape indices per net (conductors and cuts).
	byNet map[string][]int

	// Scratch of components: shape i is in component lab[i] of the last
	// labelling when stamp[i] == gen.
	lab   []int
	stamp []uint32
	gen   uint32
	stack []int
}

// cutConnects lists, per cut kind, the layers its cuts join.
var cutConnects = [process.NumLayers][]process.Layer{
	process.Contact: {process.Metal1, process.Poly, process.NDiff, process.PDiff},
	process.Via:     {process.Metal1, process.Metal2},
}

// linked reports whether two intersecting shapes of one net connect: on
// the same conducting layer, or through a cut onto a layer it joins.
func linked(a, b *layout.Shape) bool {
	return a.Layer == b.Layer && a.Layer.Conducting() ||
		a.Role == layout.Cut && layerIn(b.Layer, cutConnects[a.Layer]) ||
		b.Role == layout.Cut && layerIn(a.Layer, cutConnects[b.Layer])
}

// buildNetGraph constructs the connectivity graph of the cell. Each shape
// queries the cell's spatial index only on the layers it can link to: its
// own layer if that conducts, the layers it joins if it is a cut, and the
// cut layers that join its layer.
func buildNetGraph(cell *layout.Cell) *netGraph {
	n := len(cell.Shapes)
	g := &netGraph{adj: make([][]int, n), byNet: map[string][]int{},
		lab: make([]int, n), stamp: make([]uint32, n)}
	var hits, flat []int
	for i := range cell.Shapes {
		si := &cell.Shapes[i]
		if si.Net == "" || !si.Layer.Conducting() && si.Role != layout.Cut {
			continue
		}
		g.byNet[si.Net] = append(g.byNet[si.Net], i)
		hits = hits[:0]
		if si.Layer.Conducting() {
			hits = cell.QueryRect(hits, si.Layer, si.Rect)
		}
		if si.Role == layout.Cut {
			for _, l := range cutConnects[si.Layer] {
				hits = cell.QueryRect(hits, l, si.Rect)
			}
		}
		for k, joins := range &cutConnects {
			if layerIn(si.Layer, joins) {
				hits = cell.QueryRect(hits, process.Layer(k), si.Rect)
			}
		}
		slices.Sort(hits)
		n0 := len(flat)
		for _, j := range hits {
			if sj := &cell.Shapes[j]; j != i && sj.Net == si.Net && linked(si, sj) {
				flat = append(flat, j)
			}
		}
		if len(flat) > n0 {
			g.adj[i] = flat[n0:len(flat):len(flat)]
		}
	}
	// Move the lists into one array of their exact size, so the graph
	// does not keep the arrays flat outgrew alive.
	flat = slices.Clone(flat)
	for i, l := range g.adj {
		if len(l) > 0 {
			g.adj[i], flat = flat[:len(l):len(l)], flat[len(l):]
		}
	}
	return g
}

func layerIn(l process.Layer, ls []process.Layer) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// components labels the connected components of net's shapes with the
// shape at index `without` removed (pass -1 to keep all), numbering them
// from 0 in the order of their first shape, and returns how many there
// are. Shape i of the net is then in component g.lab[i].
func (g *netGraph) components(net string, without int) int {
	if g.gen++; g.gen == 0 {
		clear(g.stamp)
		g.gen = 1
	}
	n := 0
	for _, start := range g.byNet[net] {
		if start == without || g.stamp[start] == g.gen {
			continue
		}
		g.stamp[start] = g.gen
		g.stack = append(g.stack[:0], start)
		for len(g.stack) > 0 {
			v := g.stack[len(g.stack)-1]
			g.stack = g.stack[:len(g.stack)-1]
			g.lab[v] = n
			for _, m := range g.adj[v] {
				if m != without && g.stamp[m] != g.gen {
					g.stamp[m] = g.gen
					g.stack = append(g.stack, m)
				}
			}
		}
		n++
	}
	return n
}

// CheckConnectivity returns, per net, the number of connected components
// of the net's shape graph. A well-formed layout has exactly one component
// per net; macro layout tests assert this.
func CheckConnectivity(cell *layout.Cell) map[string]int {
	g := buildNetGraph(cell)
	out := map[string]int{}
	for net := range g.byNet {
		out[net] = g.components(net, -1)
	}
	return out
}
