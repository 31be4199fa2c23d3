package spice

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/process"
)

// armClearCheck makes every assemble of e re-run its accumulation into
// a fully zeroed matrix and compare the two systems bit for bit, so the
// partial clear is checked against the full one at every Newton
// iteration. It returns the count of assemblies checked per starting
// matrix state.
func armClearCheck(t *testing.T, name string, e *Engine) *[3]int {
	t.Helper()
	var seen [3]int
	e.checkAssemble = func(x []float64, from matState) {
		seen[from]++
		gotA := append([]float64(nil), e.a.A...)
		gotB := append([]float64(nil), e.b...)
		e.a.Zero()
		e.accumulate(x)
		for k, v := range e.a.A {
			if math.Float64bits(v) != math.Float64bits(gotA[k]) {
				t.Fatalf("%s: cell (%d,%d) = %v after the clear from state %d, %v after a full clear",
					name, k/e.a.N, k%e.a.N, gotA[k], from, v)
			}
		}
		for i, v := range e.b {
			if math.Float64bits(v) != math.Float64bits(gotB[i]) {
				t.Fatalf("%s: rhs %d differs after the clear from state %d", name, i, from)
			}
		}
	}
	return &seen
}

// checkReleaseClear requires the clear a Release applies to leave every
// cell of e's matrix +0, as the recycling pool's TakeMatrix promises.
func checkReleaseClear(t *testing.T, name string, e *Engine) {
	t.Helper()
	e.clearA()
	for k, v := range e.a.A {
		if math.Float64bits(v) != 0 {
			t.Fatalf("%s: cell (%d,%d) = %v after the release clear", name, k/e.a.N, k%e.a.N, v)
		}
	}
}

// clearLadder builds a 64-segment reference ladder with its faulted
// variant injected as the ladder macro does.
func clearLadder(t *testing.T, f *faults.Fault) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder()
	const segs = 64
	tap := func(k int) string { return fmt.Sprintf("t%03d", k) }
	b.Vsrc("vrefhi", tap(segs), "0", netlist.DC(3))
	b.Vsrc("vreflo", tap(0), "0", netlist.DC(1))
	for i := 0; i < segs; i++ {
		b.R(fmt.Sprintf("r%03d", i), tap(i), tap(i+1), 40)
	}
	if f != nil {
		if err := faults.Inject(b.C, *f, process.Default(), faults.InjectOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return b.C
}

// TestAssembleClearMatchesFullClear drives the analyses whose matrix
// states the clear rule distinguishes — a new engine, factored by the DC
// or the transient analysis, a mode switch in both directions, the gmin
// and source stepping rungs, failed (singular) factorisations and a
// Revalue — and requires every assembly to equal a full-clear one, and
// the matrix each analysis leaves to clear to all +0 on Release.
func TestAssembleClearMatchesFullClear(t *testing.T) {
	ctx := context.Background()
	var total [3]int
	add := func(seen *[3]int) {
		for s, n := range seen {
			total[s] += n
		}
	}

	// The ladder's bridge and open classes, each analysed twice on one
	// engine, then revalued to another segment resistance.
	for _, tc := range []struct {
		name string
		f    *faults.Fault
	}{
		{"ladder-bridge", &faults.Fault{Kind: faults.Short, Nets: []string{"t010", "t040"}, Res: 25}},
		{"ladder-open", &faults.Fault{Kind: faults.Open, Nets: []string{"t020"},
			FarTerminals: []faults.Terminal{{Device: "r020", Net: "t020"}}}},
	} {
		e := New(clearLadder(t, tc.f), DefaultOptions())
		seen := armClearCheck(t, tc.name, e)
		for i := 0; i < 2; i++ {
			if _, err := e.OP(ctx); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		src := clearLadder(t, tc.f)
		for _, el := range src.Elems {
			if r, ok := el.(*netlist.Resistor); ok {
				r.R *= 1.5
			}
		}
		if err := e.Revalue(src); err != nil {
			t.Fatalf("%s: revalue: %v", tc.name, err)
		}
		if _, err := e.OP(ctx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		add(seen)
		checkReleaseClear(t, tc.name, e)
	}

	// A latch-like MOS circuit through DC → transient → DC.
	e := New(assembleTestCircuit().C, DefaultOptions())
	seen := armClearCheck(t, "transient", e)
	if _, err := e.Transient(ctx, 30e-9, 1e-9); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OP(ctx); err != nil {
		t.Fatal(err)
	}
	add(seen)
	checkReleaseClear(t, "transient", e)

	// The gmin-stepping and source-stepping (with its elevated-gmin
	// retry) paths of the OP ladder tests.
	for _, tc := range []struct{ stages, maxIter int }{{3, 8}, {2, 5}} {
		opt := DefaultOptions()
		opt.MaxIter = tc.maxIter
		e := New(ladderChain(tc.stages).C, opt)
		seen := armClearCheck(t, fmt.Sprintf("chain-%d", tc.stages), e)
		if _, err := e.OP(ctx); err != nil {
			t.Fatal(err)
		}
		add(seen)
		checkReleaseClear(t, fmt.Sprintf("chain-%d", tc.stages), e)
	}

	// Two voltage sources across one node pair: every factorisation is
	// singular, and the whole fallback ladder runs on failed ones.
	b := netlist.NewBuilder()
	b.Vsrc("v1", "a", "0", netlist.DC(1))
	b.Vsrc("v2", "a", "0", netlist.DC(2))
	b.R("r", "a", "0", 1e3)
	e = New(b.C, DefaultOptions())
	seen = armClearCheck(t, "singular", e)
	if _, err := e.OP(ctx); err == nil {
		t.Fatal("singular circuit solved")
	}
	add(seen)
	checkReleaseClear(t, "singular", e)

	t.Logf("assemblies checked from clean/factored/unknown: %d/%d/%d",
		total[matClean], total[matFactored], total[matUnknown])
	for s, n := range total {
		if n == 0 {
			t.Fatalf("no assembly started from matrix state %d", s)
		}
	}
}
