// External tests for Pipeline.Run's fan-out: byte-identity across
// worker counts and against the campaign engine, and bounded-time
// cancellation that leaves no goroutine behind.
package core_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/spice"
)

// raceEnabled is set by race_test.go under -race, where the pipeline
// runs an order of magnitude slower.
var raceEnabled bool

// runJSON runs the methodology with the given fan-out bound and returns
// the report.JSON bytes.
func runJSON(t *testing.T, cfg core.Config, workers int) []byte {
	t.Helper()
	p := core.NewPipeline(cfg)
	p.Workers = workers
	run, err := p.Run(context.Background(), false)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	data, err := report.JSON(run)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunWorkersIdentical is Run's determinism contract: the report is
// byte-identical whether the discoveries and class analyses run strictly
// serially, on two workers or on GOMAXPROCS, and equal to the campaign
// engine's merged result — across seeds and vehicles. Under -race one
// small serial-vs-two-workers point suffices: the race detector needs
// the concurrency, not the sweep (TestParallelMatchesSerial covers the
// campaign engine there).
func TestRunWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline comparison in -short mode")
	}
	seeds, vehicles, workers := []int64{1995, 7}, []int{6, 8}, []int{2, 0}
	if raceEnabled {
		seeds, vehicles, workers = seeds[:1], vehicles[1:], workers[:1]
	}
	for _, seed := range seeds {
		for _, bits := range vehicles {
			t.Run(fmt.Sprintf("seed=%d/bits=%d", seed, bits), func(t *testing.T) {
				cfg := parallelTestCfg()
				cfg.Seed, cfg.Bits = seed, bits
				cfg.SkipNonCat = false // interleave both variants in the merge
				if raceEnabled {
					cfg.MCSamples, cfg.MaxClassesPerMacro = 2, 1
				}
				want := runJSON(t, cfg, 1)
				for _, w := range workers {
					if got := runJSON(t, cfg, w); !bytes.Equal(got, want) {
						t.Fatalf("workers=%d: Run output differs from the serial Run", w)
					}
				}
				if raceEnabled {
					return
				}
				run, _, err := core.RunParallel(context.Background(), cfg, false, campaign.Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				got, err := report.JSON(run)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("RunParallel output differs from the serial Run")
				}
			})
		}
	}
}

// TestRunMacroWorkersIdentical is RunMacro's determinism contract: the
// report of one macro is byte-identical whether its class analyses run
// serially or on two workers. The ladder's bridge classes take the
// rank-1 path, whose nominal factorization the workers share; the
// decoder covers gate-level fault simulation. Kept tiny (one die, a few
// classes, one pipeline per worker count): the -race run of this
// package is close to its time budget, so under -race each macro
// analyses two classes.
func TestRunMacroWorkersIdentical(t *testing.T) {
	cfg := parallelTestCfg()
	cfg.MCSamples, cfg.MaxClassesPerMacro = 1, 4
	cfg.SkipNonCat = false
	if raceEnabled {
		cfg.MaxClassesPerMacro = 2
	}
	macros := []string{"ladder", "decoder"}
	want := map[string][]byte{}
	for _, workers := range []int{1, 2} {
		p := core.NewPipeline(cfg)
		p.Workers = workers
		for _, name := range macros {
			mr, err := p.RunMacro(context.Background(), name, false)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			got, err := report.JSON(&core.Run{Cfg: cfg, Macros: []*core.MacroRun{mr}})
			if err != nil {
				t.Fatal(err)
			}
			if want[name] == nil {
				want[name] = got
			} else if !bytes.Equal(got, want[name]) {
				t.Fatalf("%s: RunMacro output at workers=%d differs from the serial run", name, workers)
			}
		}
	}
}

// cancelOnAnalysis cancels a run once it has seen the given number of
// class-analysis fault simulations (faultsim spans carrying a class
// label — the good-space dies and the nominals carry none).
type cancelOnAnalysis struct {
	after  int32
	seen   atomic.Int32
	cancel context.CancelFunc
}

func (c *cancelOnAnalysis) Emit(r *obs.Record) {
	if r.Stage == obs.StageFaultSim && r.Class != "" && c.seen.Add(1) == c.after {
		c.cancel()
	}
}

// TestRunCancelledMidAnalysis: cancelling a parallel Run while its class
// analyses are in flight must abort in bounded time with a cancellation
// error, and every worker goroutine must be gone when Run returns.
func TestRunCancelledMidAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run in -short mode")
	}
	cfg := parallelTestCfg()
	cfg.MaxClassesPerMacro = 0 // far more analyses than the cancel point
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt atomic.Int64
	sink := &cancelOnAnalysis{after: 3, cancel: func() {
		cancelledAt.Store(time.Now().UnixNano())
		cancel()
	}}
	p := core.NewPipeline(cfg)
	p.Workers = 2
	p.Obs = obs.New(sink)
	_, err := p.Run(ctx, false)
	if err == nil || !spice.IsCancelled(err) {
		t.Fatalf("want a cancellation error, got %v", err)
	}
	at := cancelledAt.Load()
	if at == 0 {
		t.Fatal("the run finished without reaching the cancel point")
	}
	if took := time.Since(time.Unix(0, at)); took > 10*time.Second {
		t.Fatalf("abort took %v after cancellation, want bounded", took)
	}
	// Run joins its workers before returning; allow the runtime a moment
	// to retire the exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the cancelled Run, %d before", n, before)
	}
}
