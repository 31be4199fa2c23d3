package defectsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/layout"
	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/process"
)

// vehicleMacros returns the five macros of a bits-bit vehicle.
func vehicleMacros(t testing.TB, bits int) []macros.Macro {
	t.Helper()
	veh, err := macros.NewVehicle(bits)
	if err != nil {
		t.Fatal(err)
	}
	return []macros.Macro{macros.NewComparator(veh), macros.NewLadder(veh),
		macros.NewBiasgen(veh), macros.NewClockgen(veh), macros.NewDecoder(veh)}
}

// pairwiseNetGraph is the reference net graph: it tests every pair of
// shapes within a net for a link, as the graph was first built.
func pairwiseNetGraph(cell *layout.Cell) (adj [][]int, byNet map[string][]int) {
	joins := func(kind process.Layer) []process.Layer {
		switch kind {
		case process.Contact:
			return []process.Layer{process.Metal1, process.Poly, process.NDiff, process.PDiff}
		case process.Via:
			return []process.Layer{process.Metal1, process.Metal2}
		}
		return nil
	}
	adj = make([][]int, len(cell.Shapes))
	byNet = map[string][]int{}
	for i, s := range cell.Shapes {
		if s.Net != "" && (s.Layer.Conducting() || s.Role == layout.Cut) {
			byNet[s.Net] = append(byNet[s.Net], i)
		}
	}
	link := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, ids := range byNet {
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				i, j := ids[x], ids[y]
				si, sj := cell.Shapes[i], cell.Shapes[j]
				if !si.Rect.Intersects(sj.Rect) {
					continue
				}
				switch {
				case si.Layer == sj.Layer && si.Layer.Conducting():
					link(i, j)
				case si.Role == layout.Cut && layerIn(sj.Layer, joins(si.Layer)):
					link(i, j)
				case sj.Role == layout.Cut && layerIn(si.Layer, joins(sj.Layer)):
					link(i, j)
				}
			}
		}
	}
	return adj, byNet
}

func TestNetGraphMatchesPairwise(t *testing.T) {
	for _, bits := range []int{4, 6, 8, 9} {
		for _, m := range vehicleMacros(t, bits) {
			for _, dft := range []bool{false, true} {
				cell := m.Layout(dft)
				g := buildNetGraph(cell)
				adj, byNet := pairwiseNetGraph(cell)
				if !reflect.DeepEqual(g.adj, adj) || !reflect.DeepEqual(g.byNet, byNet) {
					t.Errorf("%d-bit %s dft=%v: indexed net graph differs from the pairwise one", bits, m.Name(), dft)
				}
			}
		}
	}
}

// sprinkleDigest is the sha256 of the JSON of the faults that n defects
// at seed leave on cell.
func sprinkleDigest(t testing.TB, cell *layout.Cell, n int, seed int64) string {
	t.Helper()
	res, err := New(cell, process.Default()).Sprinkle(context.Background(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Faults)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSprinkleDigests pins the faults of a 25 000-defect sprinkle on each
// macro cell, so that a change to the extraction or to its data
// structures cannot move a single fault unnoticed. The ladder, clock
// generator and decoder cells are the same with DfT on.
func TestSprinkleDigests(t *testing.T) {
	pins := []struct {
		bits  int
		macro string
		dft   bool
		want  string
	}{
		{8, "comparator", false, "675e2879efe4f0adcacb109f16afe27825219ee2536a59843de3f6462320d4ce"},
		{8, "ladder", false, "0ffb262613cff231ca5baedf001fd52494667ef0603f2689f7d3d0965502fe77"},
		{8, "biasgen", false, "543dba1cc9aaf0b705c512aee15fea117956e4a0ab308f87fb02e361c585af7c"},
		{8, "clockgen", false, "12f29ecd7d15eb2b5901c1e8ea70016320bcd5f259971dc2b3c5113869b2cbcb"},
		{8, "decoder", false, "464c0fa8c11dd80b13fe5aa0dd3035615d49e07ba5160fb0ff3ca9d692e43d15"},
		{8, "comparator", true, "e29bcea9c3e9b8b01c578925e232432d3da07ec90e021698838e3554432a6bc5"},
		{8, "biasgen", true, "fa11d932aa34b5e122d6c51987f5042b53aa9ad096f7e7e7549877d49035be14"},
		{9, "ladder", false, "58104e7f0bfe281b2b440e1350e5d9be900e50ff2870a4f1927e5989a048b3f0"},
	}
	for _, p := range pins {
		for _, m := range vehicleMacros(t, p.bits) {
			if m.Name() != p.macro {
				continue
			}
			if got := sprinkleDigest(t, m.Layout(p.dft), 25000, 1995); got != p.want {
				t.Errorf("%d-bit %s dft=%v: sprinkle digest %s, want %s", p.bits, p.macro, p.dft, got, p.want)
			}
		}
	}
}

// errAfter is a context whose Err reports cancellation after n nil
// answers.
type errAfter struct {
	context.Context
	n int
}

func (c *errAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestSprinkleCancel(t *testing.T) {
	s := New(twoWires(), process.Default())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := s.Sprinkle(ctx, 5000, 1); err != context.Canceled || res != nil {
		t.Fatalf("cancelled sprinkle = %v, %v; want nil, context.Canceled", res, err)
	}

	s.Metrics = &obs.Metrics{}
	if _, err := s.Sprinkle(context.Background(), 5000, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics.Get(obs.CtrSprinkleDraws); got != 5000 {
		t.Fatalf("sprinkle_draws = %d after a full sprinkle of 5000", got)
	}

	// Cancelled at the third check: only the first two blocks are drawn.
	s.Metrics = &obs.Metrics{}
	if res, err := s.Sprinkle(&errAfter{context.Background(), 2}, 5000, 1); err != context.Canceled || res != nil {
		t.Fatalf("sprinkle cancelled mid-run = %v, %v; want nil, context.Canceled", res, err)
	}
	if got := s.Metrics.Get(obs.CtrSprinkleDraws); got != 2*cancelEvery {
		t.Fatalf("sprinkle_draws = %d after a sprinkle cancelled at draw %d", got, 2*cancelEvery)
	}
}

// TestSprinkleAllocs bounds a sprinkle's allocations: one per fault (its
// net list) plus a few for the result, the RNG and the fault list's
// growth, and none per draw.
func TestSprinkleAllocs(t *testing.T) {
	s := New(twoWires(), process.Default())
	res, err := s.Sprinkle(context.Background(), 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Sprinkle(context.Background(), 5000, 42); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(len(res.Faults) + 20); allocs > limit {
		t.Fatalf("sprinkle of 5000 defects with %d faults made %.0f allocations, want at most %.0f",
			len(res.Faults), allocs, limit)
	}
}

func BenchmarkSprinkle(b *testing.B) {
	for _, m := range vehicleMacros(b, macros.DefaultBits) {
		if m.Name() != "comparator" && m.Name() != "decoder" {
			continue
		}
		s := New(m.Layout(false), process.Default())
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Sprinkle(context.Background(), 25000, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNetGraph(b *testing.B) {
	cell := macros.NewDecoder(macros.DefaultVehicle()).Layout(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildNetGraph(cell)
	}
}
