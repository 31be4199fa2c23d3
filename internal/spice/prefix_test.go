package spice

import (
	"context"
	"math"
	"testing"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// tranCopy is a transient's stored trajectory, copied out of the
// engine-owned storage a Tran aliases.
type tranCopy struct {
	times []float64
	xs    [][]float64
}

func copyTran(tr *Tran) tranCopy {
	c := tranCopy{times: append([]float64(nil), tr.Times...)}
	for _, x := range tr.Xs {
		c.xs = append(c.xs, append([]float64(nil), x...))
	}
	return c
}

// checkPrefix runs segs to the end and stopped at stop, each on a fresh
// engine from mk, and requires the stopped run to hold exactly the full
// run's first k+1 snapshots, k being the first stored index with
// t >= stop: the same times and bitwise-equal solutions. It returns the
// stopped run's counters.
func checkPrefix(t *testing.T, mk func(*obs.Metrics) *Engine, segs []TranSeg, stop float64) *obs.Metrics {
	t.Helper()
	full, err := mk(nil).TransientSchedule(context.Background(), segs, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	want := copyTran(full)
	k := -1
	for i, tt := range want.times {
		if tt >= stop {
			k = i
			break
		}
	}
	if k < 0 || k == len(want.times)-1 {
		t.Fatalf("stop %g does not fall inside the schedule (%d steps to %g)", stop, len(want.times), want.times[len(want.times)-1])
	}
	met := &obs.Metrics{}
	got, err := mk(met).TransientSchedule(context.Background(), segs, stop)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != k+1 {
		t.Fatalf("stopped run stored %d snapshots, want %d (first time >= %g is %g)", got.Len(), k+1, stop, want.times[k])
	}
	for i := 0; i <= k; i++ {
		if math.Float64bits(got.Times[i]) != math.Float64bits(want.times[i]) {
			t.Fatalf("snapshot %d: time %g, full run %g", i, got.Times[i], want.times[i])
		}
		for j, v := range got.Xs[i] {
			if math.Float64bits(v) != math.Float64bits(want.xs[i][j]) {
				t.Fatalf("snapshot %d (t=%g), unknown %d: %v, full run %v", i, want.times[i], j, v, want.xs[i][j])
			}
		}
	}
	return met
}

func rcEngine(met *obs.Metrics) *Engine {
	b := netlist.NewBuilder()
	b.Vsrc("v1", "in", "0", netlist.PWL{T: []float64{0, 1e-9, 2e-3}, V: []float64{0, 1, 1}})
	b.R("r1", "in", "out", 1000)
	b.Cap("c1", "out", "0", 1e-6)
	b.NMOS("mn", "drn", "out", "0", 4, 1)
	b.R("rl", "in", "drn", 10e3)
	opt := DefaultOptions()
	opt.Metrics = met
	return New(b.C, opt)
}

var rcSchedule = []TranSeg{
	{Until: 0.5e-3, Dt: 50e-6},
	{Until: 1.0e-3, Dt: 5e-6},
	{Until: 3.0e-3, Dt: 50e-6},
}

func TestTransientStopInsideSegment(t *testing.T) {
	checkPrefix(t, rcEngine, rcSchedule, 0.7321e-3)
}

func TestTransientStopOnSegmentBoundary(t *testing.T) {
	checkPrefix(t, rcEngine, rcSchedule, 1.0e-3)
	checkPrefix(t, rcEngine, rcSchedule, 0.5e-3)
}

func TestTransientStopAfterRefinedStep(t *testing.T) {
	// The input jumps 5 V in one 1 ns step. Newton damps node updates to
	// MaxStep = 1 V per iteration, so the full step needs six
	// iterations; with four it fails, and so does the elevated-gmin
	// retry (gmin does not lift the damping). The step is then taken as
	// two 0.5 ns substeps of 2.5 V, which fit in four iterations.
	mk := func(met *obs.Metrics) *Engine {
		b := netlist.NewBuilder()
		b.Vsrc("v1", "in", "0", netlist.PWL{T: []float64{0, 1e-9, 2e-9, 20e-9}, V: []float64{0, 0, 5, 5}})
		b.R("r1", "in", "out", 1000)
		b.Cap("c1", "out", "0", 10e-12)
		opt := DefaultOptions()
		opt.MaxIter = 4
		opt.Metrics = met
		return New(b.C, opt)
	}
	met := checkPrefix(t, mk, []TranSeg{{Until: 20e-9, Dt: 1e-9}}, 5e-9)
	if met.Get(obs.CtrGminRetries) == 0 {
		t.Fatal("no step of the stopped prefix failed: the refinement path was not exercised")
	}
}
