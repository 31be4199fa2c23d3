package macros_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/macros"
	"repro/internal/obs"
)

// TestFaultyReleaseRecyclesMatrix: a faulty engine's release hands its
// n² matrix back for the next rebuild, so repeated rebuilds of a
// topology-changing 9-bit ladder class (515 unknowns) allocate less per
// response than one such matrix.
func TestFaultyReleaseRecyclesMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	l := macros.NewLadder(macros.Vehicle{Bits: 9})
	ctx := context.Background()
	met := &obs.Metrics{}
	opt := macros.RespondOpts{Var: macros.Nominal(), Base: macros.NewBaselines(), Pool: macros.NewEnginePool(), Metrics: met}
	open := &faults.Fault{
		Kind: faults.Open, Nets: []string{"t200"},
		FarTerminals: []faults.Terminal{{Device: "r200", Net: "t200"}},
	}
	respond := func() {
		if _, err := l.Respond(ctx, open, opt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		respond()
	}
	const runs = 50
	rebuilds := met.Get(obs.CtrFullRebuilds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		respond()
	}
	runtime.ReadMemStats(&after)
	if got := met.Get(obs.CtrFullRebuilds) - rebuilds; got != runs {
		t.Fatalf("full_rebuilds = %d over %d responses, want one each", got, runs)
	}
	perRespond := float64(after.TotalAlloc-before.TotalAlloc) / runs
	matrix := float64(515 * 515 * 8)
	t.Logf("%.0f bytes per response (one 515² matrix is %.0f)", perRespond, matrix)
	if perRespond >= matrix {
		t.Fatalf("%.0f bytes allocated per response, want below one 515² matrix (%.0f)", perRespond, matrix)
	}
}
