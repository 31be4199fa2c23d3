// External tests for the scheduler behind Run, RunMacro and
// RunParallel: byte-identity across worker counts and entry points,
// bounded-time cancellation that leaves no goroutine behind, and failed
// units surfacing as errors.
package core_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
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

// runRendered runs the methodology with the given fan-out bound and
// returns the rendered report (see renderRun).
func runRendered(t *testing.T, cfg core.Config, workers int) []byte {
	t.Helper()
	p := core.NewPipeline(cfg)
	p.Workers = workers
	run, err := p.Run(context.Background(), false)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return renderRun(t, run)
}

// TestRunWorkersIdentical is Run's determinism contract: the rendered
// report is byte-identical whether Run executes strictly serially, on
// two workers or on GOMAXPROCS, and equal to RunParallel's merged result
// — across seeds and vehicles. Under -race one small
// serial-vs-two-workers point suffices: the race detector needs the
// concurrency, not the sweep (TestParallelMatchesSerial covers
// RunParallel there).
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
				want := runRendered(t, cfg, 1)
				for _, w := range workers {
					if got := runRendered(t, cfg, w); !bytes.Equal(got, want) {
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
				if got := renderRun(t, run); !bytes.Equal(got, want) {
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

// runEntryPoints are the two error-returning entry points of the
// scheduler: Run over every macro, and RunMacro over the ladder.
var runEntryPoints = []struct {
	name string
	run  func(ctx context.Context, p *core.Pipeline) error
}{
	{"Run", func(ctx context.Context, p *core.Pipeline) error {
		_, err := p.Run(ctx, false)
		return err
	}},
	{"RunMacro", func(ctx context.Context, p *core.Pipeline) error {
		_, err := p.RunMacro(ctx, "ladder", false)
		return err
	}},
}

// TestRunCancelledMidAnalysis: cancelling Run or RunMacro while class
// analyses are in flight must abort in bounded time with a cancellation
// error, and every worker goroutine must be gone when it returns.
func TestRunCancelledMidAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run in -short mode")
	}
	for _, ep := range runEntryPoints {
		t.Run(ep.name, func(t *testing.T) {
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
			if err := ep.run(ctx, p); err == nil || !spice.IsCancelled(err) {
				t.Fatalf("want a cancellation error, got %v", err)
			}
			at := cancelledAt.Load()
			if at == 0 {
				t.Fatal("the run finished without reaching the cancel point")
			}
			if took := time.Since(time.Unix(0, at)); took > 10*time.Second {
				t.Fatalf("abort took %v after cancellation, want bounded", took)
			}
			// The run joins its workers before returning; allow the
			// runtime a moment to retire the exited goroutines.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines after the cancelled run, %d before", n, before)
			}
		})
	}
}

// panicOnLadderAnalysis panics inside every ladder class analysis, at
// the end of its fault-simulation span.
type panicOnLadderAnalysis struct{}

func (panicOnLadderAnalysis) Emit(r *obs.Record) {
	if r.Stage == obs.StageFaultSim && r.Macro == "ladder" && r.Class != "" {
		panic("injected")
	}
}

// TestRunFailedClassIsError: a class analysis that panics on a worker
// neither kills the process nor vanishes from the report. Run and
// RunMacro return no Outcome, so the failed units surface as an error
// that names them, in key order.
func TestRunFailedClassIsError(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run in -short mode")
	}
	cfg := parallelTestCfg()
	cfg.MCSamples = 2
	for _, ep := range runEntryPoints {
		t.Run(ep.name, func(t *testing.T) {
			p := core.NewPipeline(cfg)
			p.Workers = 2
			p.Obs = obs.New(panicOnLadderAnalysis{})
			err := ep.run(context.Background(), p)
			if err == nil {
				t.Fatal("a run with panicking class analyses reported success")
			}
			want := "3 units failed: class/ladder/0/cat, class/ladder/1/cat, class/ladder/2/cat "
			if msg := err.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, "injected") {
				t.Fatalf("error %q does not name the failed ladder units in order (want %q)", msg, want)
			}
		})
	}
}
