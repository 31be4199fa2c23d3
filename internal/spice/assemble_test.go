package spice

import (
	"context"
	"testing"

	"repro/internal/netlist"
	"repro/internal/solver"
)

// naiveAssemble is the reference assembly the compiled stamp program must
// reproduce bit for bit: dispatch every element in netlist order, then
// the node leak — the pre-workspace engine behaviour.
func naiveAssemble(e *Engine, a *solver.Matrix, b []float64, x, xPrev []float64,
	mode netlist.StampMode, time, dt, gmin, srcScale float64) {
	a.Zero()
	for i := range b {
		b[i] = 0
	}
	ctx := &netlist.Context{
		Mode: mode, Time: time, Dt: dt, SrcScale: srcScale, Gmin: gmin,
		XDense: x, XPrevDense: xPrev,
		ADense: a.A, BDense: b, N: a.N,
	}
	for i, el := range e.Ckt.Elems {
		el.Stamp(ctx, e.auxBase[i])
	}
	const leak = 1e-12
	for i := 0; i < e.nNodeVars; i++ {
		a.Add(i, i, leak)
	}
}

// assembleTestCircuit interleaves every element kind (MOSFETs with their
// automatic capacitors, resistors, both source kinds) so linear and
// nonlinear stamp segments alternate.
func assembleTestCircuit() *netlist.Builder {
	b := netlist.NewBuilder()
	b.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	b.Vsrc("vin", "in", "0", netlist.Pulse{V0: 0, V1: 5, Delay: 5e-9, Rise: 1e-9, Fall: 1e-9, Width: 20e-9})
	b.PMOS("mp1", "mid", "in", "vdd", "vdd", 8, 1)
	b.NMOS("mn1", "mid", "in", "0", 4, 1)
	b.R("rl", "mid", "out", 2200)
	b.Cap("cl", "out", "0", 50e-15)
	b.PMOS("mp2", "out2", "out", "vdd", "vdd", 6, 1)
	b.NMOS("mn2", "out2", "out", "0", 3, 1)
	b.Isrc("ib", "vdd", "mid", netlist.DC(2e-6))
	b.R("rg", "out2", "0", 1e6)
	return b
}

// TestAssembleMatchesNaive requires record/replay assembly to be
// bit-identical to naive per-element stamping — the property that keeps
// every simulation result unchanged by the zero-allocation kernel.
func TestAssembleMatchesNaive(t *testing.T) {
	b := assembleTestCircuit()
	e := New(b.C, DefaultOptions())
	n := e.nUnknowns

	x := make([]float64, n)
	xPrev := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = 0.1*float64(i%7) - 0.2
		xPrev[i] = 0.05 * float64(i%5)
	}
	refA := solver.NewMatrix(n)
	refB := make([]float64, n)

	cases := []struct {
		name                     string
		mode                     netlist.StampMode
		time, dt, gmin, srcScale float64
	}{
		{"dcop", netlist.DCOp, 0, 0, 1e-12, 1},
		{"dcop-gmin-scaled", netlist.DCOp, 0, 0, 1e-4, 0.35},
		{"transient", netlist.Transient, 7e-9, 0.5e-9, 1e-12, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			naiveAssemble(e, refA, refB, x, xPrev, tc.mode, tc.time, tc.dt, tc.gmin, tc.srcScale)
			e.beginSolve(tc.mode, tc.time, tc.dt, tc.gmin, tc.srcScale, xPrev)
			e.assemble(x)
			for i := 0; i < n*n; i++ {
				if e.a.A[i] != refA.A[i] {
					t.Fatalf("matrix cell (%d,%d): replay %v != naive %v",
						i/n, i%n, e.a.A[i], refA.A[i])
				}
			}
			for i := 0; i < n; i++ {
				if e.b[i] != refB[i] {
					t.Fatalf("rhs row %d: replay %v != naive %v", i, e.b[i], refB[i])
				}
			}
		})
	}
}

// TestAssembleSteadyStateAllocs pins the zero-allocation property of the
// Newton hot path: repeated solves on a warmed engine allocate only the
// returned Solution snapshot.
func TestAssembleSteadyStateAllocs(t *testing.T) {
	e := New(assembleTestCircuit().C, DefaultOptions())
	if _, err := e.OPAt(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.OPAt(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	})
	// One Solution struct + one X snapshot.
	if allocs > 2 {
		t.Fatalf("OPAt steady state allocates %v objects per run, want <= 2", allocs)
	}
}

// TestCompileStampsPartition sanity-checks the per-mode programs: DC
// drops the capacitors, transient keeps them, and both preserve element
// order within the interleaved segment structure.
func TestCompileStampsPartition(t *testing.T) {
	b := assembleTestCircuit()
	e := New(b.C, DefaultOptions())
	dc := e.prog(netlist.DCOp)
	tran := e.prog(netlist.Transient)

	caps := 0
	for _, el := range b.C.Elems {
		if _, ok := el.(*netlist.Capacitor); ok {
			caps++
		}
	}
	if caps == 0 {
		t.Fatal("test circuit has no capacitors")
	}
	if len(tran.Items) != len(b.C.Elems) {
		t.Fatalf("transient program has %d items, want %d", len(tran.Items), len(b.C.Elems))
	}
	if len(dc.Items) != len(b.C.Elems)-caps {
		t.Fatalf("DC program has %d items, want %d", len(dc.Items), len(b.C.Elems)-caps)
	}
	for _, p := range []*netlist.StampProgram{dc, tran} {
		covered := 0
		for i, seg := range p.Segs {
			if seg.From != covered {
				t.Fatalf("segment %d starts at %d, want %d", i, seg.From, covered)
			}
			if seg.To <= seg.From {
				t.Fatalf("segment %d is empty", i)
			}
			for _, it := range p.Items[seg.From:seg.To] {
				if (it.Linear != nil) != seg.Linear {
					t.Fatalf("segment %d mixes linear and nonlinear items", i)
				}
				if lin, _ := it.El.(netlist.LinearElement); lin != it.Linear {
					t.Fatalf("item %s mislabelled", it.El.Name())
				}
			}
			covered = seg.To
		}
		if covered != len(p.Items) {
			t.Fatalf("segments cover %d of %d items", covered, len(p.Items))
		}
	}
}
