package macros_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/signature"
)

// TestRank1RespondAllocs: a warmed rank-1 ladder response on the 9-bit
// vehicle runs in its pooled workspace, so it allocates less per
// response than one 513-entry tap vector — no n-sized buffer at all.
func TestRank1RespondAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	l := macros.NewLadder(macros.Vehicle{Bits: 9})
	ctx := context.Background()
	met := &obs.Metrics{}
	opt := macros.RespondOpts{Var: macros.Nominal(), Base: macros.NewBaselines(), Metrics: met}
	bridge := &faults.Fault{Kind: faults.Short, Nets: []string{"t192", "t256"}, Res: 25}
	respond := func() {
		if _, err := l.Respond(ctx, bridge, opt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		respond()
	}
	const runs = 50
	solves := met.Get(obs.CtrRank1Solves)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		respond()
	}
	runtime.ReadMemStats(&after)
	if got := met.Get(obs.CtrRank1Solves) - solves; got != runs {
		t.Fatalf("rank1_solves = %d over %d responses, want one each", got, runs)
	}
	if n := met.Get(obs.CtrRank1Fallbacks); n != 0 {
		t.Fatalf("rank1_fallbacks = %d, want 0", n)
	}
	perRespond := float64(after.TotalAlloc-before.TotalAlloc) / runs
	taps := float64(513 * 8)
	t.Logf("%.0f bytes per response (one 513-entry tap vector is %.0f)", perRespond, taps)
	if perRespond >= taps {
		t.Fatalf("%.0f bytes allocated per response, want below one 513-entry tap vector (%.0f)", perRespond, taps)
	}
}

// TestRank1RespondConcurrentMatchesSerial: ladder class analyses running
// concurrently against one Baselines — rank-1 bridges through the
// pooled workspaces and opens through the rebuild path — each return
// exactly their serial response.
func TestRank1RespondConcurrentMatchesSerial(t *testing.T) {
	l := macros.NewLadder(macros.Vehicle{Bits: 6})
	ctx := context.Background()
	var classes []*faults.Fault
	for k := 1; k < 60; k += 7 {
		classes = append(classes,
			&faults.Fault{Kind: faults.Short, Nets: []string{tap(k), tap(k + 3)}, Res: 25 * float64(k)},
			&faults.Fault{Kind: faults.Open, Nets: []string{tap(k)},
				FarTerminals: []faults.Terminal{{Device: fmt.Sprintf("r%03d", k), Net: tap(k)}}})
	}
	want := make([]*signature.Response, len(classes))
	serial := macros.RespondOpts{Var: macros.Nominal(), Base: macros.NewBaselines()}
	for i, f := range classes {
		r, err := l.Respond(ctx, f, serial)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	met := &obs.Metrics{}
	shared := macros.RespondOpts{Var: macros.Nominal(), Base: macros.NewBaselines(), Metrics: met}
	const workers, rounds = 4, 3
	got := make([][]*signature.Response, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]*signature.Response, rounds*len(classes))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range got[w] {
				// Each worker walks the classes from its own offset, so
				// distinct classes overlap in time.
				i := (j + w*len(classes)/workers) % len(classes)
				r, err := l.Respond(ctx, classes[i], shared)
				if err != nil {
					t.Error(err)
					return
				}
				got[w][j] = r
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := range got {
		for j, r := range got[w] {
			i := (j + w*len(classes)/workers) % len(classes)
			if !reflect.DeepEqual(r, want[i]) {
				t.Fatalf("worker %d, class %d (%v): concurrent response %+v, serial %+v", w, i, classes[i].Nets, r, want[i])
			}
		}
	}
	if met.Get(obs.CtrRank1Solves) == 0 || met.Get(obs.CtrFullRebuilds) == 0 {
		t.Fatalf("rank1_solves = %d, full_rebuilds = %d: both paths must run",
			met.Get(obs.CtrRank1Solves), met.Get(obs.CtrFullRebuilds))
	}
}

func tap(k int) string { return fmt.Sprintf("t%03d", k) }
