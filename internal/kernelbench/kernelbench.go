// Package kernelbench defines the analog-kernel benchmark suite in one
// place so it can run both under `go test -bench` (bench_test.go at the
// module root registers every case) and from cmd/benchkernel, which
// executes the same cases with testing.Benchmark and emits the
// machine-readable BENCH_kernel.json snapshot tracked in EXPERIMENTS.md.
//
// The cases cover the three altitudes of the hot path:
//
//   - solver: raw LU factor+solve at MNA-typical sizes
//   - op/tran: Engine.OPAt and Engine.Transient on CMOS circuits, with
//     the engine reused across iterations (the campaign's steady state)
//   - analyzeclass: one full fault-class analysis unit of the pipeline,
//     the quantum of work the parallel campaign schedules
//   - goodspace: the die-sharded good-signature-space Monte Carlo
//     compile, the pipeline's front-end prelude
package kernelbench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/macros"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/spice"
)

// Case is one named kernel benchmark.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// solverMatrix builds a deterministic well-conditioned dense test matrix
// (diagonally dominant, off-diagonals from a fixed linear congruence).
func solverMatrix(n int) *solver.Matrix {
	m := solver.NewMatrix(n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			state = state*6364136223846793005 + 1442695040888963407
			v := float64(state>>40)/float64(1<<24) - 0.5
			m.Set(i, j, v)
		}
		m.Add(i, i, float64(n))
	}
	return m
}

// inverterChain builds a k-stage CMOS inverter chain driven by vdd (the
// BenchmarkAblationSolver circuit, kept here so solver- and engine-level
// numbers are measured on the same topology).
func inverterChain(k int) *netlist.Builder {
	bld := netlist.NewBuilder()
	bld.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	in := "vdd"
	for i := 0; i < k; i++ {
		out := fmt.Sprintf("n%d", i)
		bld.PMOS(fmt.Sprintf("p%d", i), out, in, "vdd", "vdd", 8, 1)
		bld.NMOS(fmt.Sprintf("n%dm", i), out, in, "0", 4, 1)
		in = out
	}
	return bld
}

// pulseChain is the transient workload: a 8-stage inverter chain with its
// automatic gate/junction capacitors, kicked by a pulse.
func pulseChain() *netlist.Builder {
	bld := netlist.NewBuilder()
	bld.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	bld.Vsrc("vin", "in", "0", netlist.Pulse{
		V0: 0, V1: 5, Delay: 10e-9, Rise: 1e-9, Fall: 1e-9, Width: 40e-9,
	})
	in := "in"
	for i := 0; i < 8; i++ {
		out := fmt.Sprintf("n%d", i)
		bld.PMOS(fmt.Sprintf("p%d", i), out, in, "vdd", "vdd", 8, 1)
		bld.NMOS(fmt.Sprintf("n%dm", i), out, in, "0", 4, 1)
		in = out
	}
	return bld
}

// analyzePipeline lazily builds (and warms) the shared pipeline for the
// AnalyzeClass case: the good space and nominal responses are compiled
// once, exactly as RunParallel warms them before scheduling class units.
var (
	analyzeOnce sync.Once
	analyzePipe *core.Pipeline
	analyzeErr  error
)

func analyzeSetup() (*core.Pipeline, error) {
	analyzeOnce.Do(func() {
		cfg := core.QuickConfig()
		cfg.MCSamples = 5
		analyzePipe = core.NewPipeline(cfg)
		if _, err := analyzePipe.GoodSpace(context.Background(), false); err != nil {
			analyzeErr = err
			return
		}
		_, analyzeErr = analyzePipe.AnalyzeClass(context.Background(), "ladder", ladderBridge(), false, false)
	})
	return analyzePipe, analyzeErr
}

// openSetup lazily builds (and warms) the pipeline of the ladder-open
// case: analyzeSetup's configuration plus an observer, whose aggregated
// counters the case reads to pin the rebuild path. (The bridge case's
// pipeline stays unobserved, so its allocs/op keep their meaning.)
var (
	openOnce sync.Once
	openPipe *core.Pipeline
	openAgg  *obs.Agg
	openErr  error
)

func openSetup() (*core.Pipeline, *obs.Agg, error) {
	openOnce.Do(func() {
		cfg := core.QuickConfig()
		cfg.MCSamples = 5
		openAgg = obs.NewAgg()
		openPipe = core.NewPipeline(cfg)
		openPipe.Obs = obs.New(openAgg)
		if _, openErr = openPipe.GoodSpace(context.Background(), false); openErr != nil {
			return
		}
		_, openErr = openPipe.AnalyzeClass(context.Background(), "ladder", ladderOpen(), false, false)
	})
	return openPipe, openAgg, openErr
}

// ladderOpen is an open of tap t050 that cuts segment r050 off it: its
// fault plan changes the topology, so the low-rank path cannot serve it
// and every analysis builds, injects and factors a fresh engine.
func ladderOpen() faults.Class {
	return faults.Class{
		Fault: faults.Fault{Kind: faults.Open, Nets: []string{"t050"},
			FarTerminals: []faults.Terminal{{Device: "r050", Net: "t050"}}},
		Count: 1,
	}
}

// ladderBridge is the analysed class: the adjacent-tap ladder short of
// BenchmarkAblationBridgeResistance, a mid-detectability workhorse.
func ladderBridge() faults.Class {
	return faults.Class{
		Fault: faults.Fault{Kind: faults.Short, Nets: []string{"t096", "t128"}, Res: 25},
		Count: 1,
	}
}

// sumCounter folds one counter across every stage of an aggregator
// snapshot (checkout counters land in the inject stage, the goodspace
// cases' per-die counters in the goodspace stages).
func sumCounter(agg *obs.Agg, c obs.Counter) int64 {
	var n int64
	for _, st := range agg.Snapshot() {
		n += st.Counters[c.Name()]
	}
	return n
}

// Cases returns the kernel benchmark suite.
func Cases() []Case {
	return []Case{
		{Name: "solver/factor-solve-n32", Bench: func(b *testing.B) {
			m := solverMatrix(32)
			rhs := make([]float64, 32)
			for i := range rhs {
				rhs[i] = float64(i%7) - 3
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.SolveSystem(m, rhs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "op/inverter-chain-20", Bench: func(b *testing.B) {
			eng := spice.New(inverterChain(20).C, spice.DefaultOptions())
			if _, err := eng.OPAt(context.Background(), 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.OPAt(context.Background(), 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "tran/pulse-chain-100ns", Bench: func(b *testing.B) {
			eng := spice.New(pulseChain().C, spice.DefaultOptions())
			if _, err := eng.Transient(context.Background(), 100e-9, 0.5e-9); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Transient(context.Background(), 100e-9, 0.5e-9); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "tran/comparator-respond", Bench: func(b *testing.B) {
			m := macros.NewComparator(macros.DefaultVehicle())
			// The pool mirrors the campaign's steady state: the pipeline
			// owns one, so repeated fault-free responses reuse a warm
			// engine and only retune the input source.
			opt := macros.RespondOpts{Var: macros.Nominal(), CurrentsOnly: true,
				Pool: macros.NewEnginePool()}
			if _, err := m.Respond(context.Background(), nil, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Respond(context.Background(), nil, opt); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "goodspace/quick-12-dies", Bench: func(b *testing.B) {
			// A fresh pipeline per iteration: GoodSpace caches its result,
			// so reuse would measure a map lookup. The worker count is left
			// automatic — the case tracks the sharded compile as shipped,
			// so on multi-core hardware its ns/op shows the die-sharding
			// win (on one core it matches the serial loop).
			cfg := core.QuickConfig() // 12 Monte Carlo dies
			if _, err := core.NewPipeline(cfg).GoodSpace(context.Background(), false); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPipeline(cfg).GoodSpace(context.Background(), false); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "rank1/ladder-update", Bench: func(b *testing.B) {
			// The low-rank fault-update quantum: one faulted ladder solve
			// against the variation's shared nominal factorization. The
			// post-run counter assertions make this case a functional
			// guard as well as a timing one — if the fast path silently
			// starts falling back to the rebuild+refactor path, the case
			// fails rather than just slowing down.
			l := macros.NewLadder(macros.DefaultVehicle())
			met := &obs.Metrics{}
			opt := macros.RespondOpts{Var: macros.Nominal(),
				Base: macros.NewBaselines(), Metrics: met}
			f := &faults.Fault{Kind: faults.Short, Nets: []string{"t096", "t128"}, Res: 25}
			if _, err := l.Respond(context.Background(), f, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Respond(context.Background(), f, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n := met.Get(obs.CtrRank1Fallbacks); n != 0 {
				b.Fatalf("rank1_fallbacks = %d, want 0: the update path regressed to the rebuild path", n)
			}
			if n := met.Get(obs.CtrRank1Solves); n < int64(b.N) {
				b.Fatalf("rank1_solves = %d over %d timed ops", n, b.N)
			}
		}},
		{Name: "rank1/ladder-update-6bit", Bench: func(b *testing.B) {
			// The same fault-update quantum on the 6-bit vehicle (64
			// segments instead of 256): tracks how the kernel scales
			// with vehicle size, with the same fast-path guard.
			l := macros.NewLadder(macros.Vehicle{Bits: 6})
			met := &obs.Metrics{}
			opt := macros.RespondOpts{Var: macros.Nominal(),
				Base: macros.NewBaselines(), Metrics: met}
			f := &faults.Fault{Kind: faults.Short, Nets: []string{"t016", "t032"}, Res: 25}
			if _, err := l.Respond(context.Background(), f, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Respond(context.Background(), f, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n := met.Get(obs.CtrRank1Fallbacks); n != 0 {
				b.Fatalf("rank1_fallbacks = %d, want 0: the update path regressed to the rebuild path", n)
			}
			if n := met.Get(obs.CtrRank1Solves); n < int64(b.N) {
				b.Fatalf("rank1_solves = %d over %d timed ops", n, b.N)
			}
		}},
		{Name: "rebind/comparator-revalue", Bench: func(b *testing.B) {
			// The compile-once/revalue-many quantum: every iteration is a
			// full comparator response for a different Monte Carlo die,
			// served by the same pooled engine revalued in place.
			// Pre-rebind the pool keyed on the Variation, so a die change
			// meant a netlist rebuild and symbolic recompile per response;
			// the counter guard pins that the timed ops never take that
			// path anymore.
			m := macros.NewComparator(macros.DefaultVehicle())
			met := &obs.Metrics{}
			pool := macros.NewEnginePool()
			rng := rand.New(rand.NewSource(1))
			vars := make([]macros.Variation, 8)
			for i := range vars {
				vars[i] = macros.Draw(rng)
				for vars[i].FFLeakA <= 1e-9 { // keep one topology key
					vars[i] = macros.Draw(rng)
				}
			}
			opt := func(i int) macros.RespondOpts {
				return macros.RespondOpts{Var: vars[i%len(vars)], CurrentsOnly: true,
					Pool: pool, Metrics: met}
			}
			// Warm a full pass through the die cycle so the timed ops
			// measure the steady revalue path, not first-sight symbolic
			// learning — otherwise allocs/op depends on benchtime.
			for i := range vars {
				if _, err := m.Respond(context.Background(), nil, opt(i)); err != nil {
					b.Fatal(err)
				}
			}
			warm := met.Get(obs.CtrFullRebuilds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Respond(context.Background(), nil, opt(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n := met.Get(obs.CtrFullRebuilds) - warm; n != 0 {
				b.Fatalf("full_rebuilds = %d during revalue-only iterations, want 0", n)
			}
			if n := met.Get(obs.CtrRebindHits); n < int64(b.N) {
				b.Fatalf("rebind_hits = %d over %d timed ops", n, b.N)
			}
		}},
		{Name: "rebind/dies-revalue", Bench: func(b *testing.B) {
			// The good-space compile with the die loop pinned serial: all
			// 12 quick-config dies run through one worker's private pool,
			// so die 0 compiles the engines and the remaining dies revalue
			// them in place. A fresh pipeline per op (GoodSpace memoises
			// its result); the guard pins that rebinds dominate rebuilds —
			// the per-die full-rebuild regime would fail it.
			cfg := core.QuickConfig()
			run := func() *obs.Agg {
				agg := obs.NewAgg()
				p := core.NewPipeline(cfg)
				p.Workers = 1
				p.Obs = obs.New(agg)
				if _, err := p.GoodSpace(context.Background(), false); err != nil {
					b.Fatal(err)
				}
				return agg
			}
			agg := run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg = run()
			}
			b.StopTimer()
			rebinds := sumCounter(agg, obs.CtrRebindHits)
			rebuilds := sumCounter(agg, obs.CtrFullRebuilds)
			if rebinds <= rebuilds {
				b.Fatalf("rebind_hits (%d) must dominate full_rebuilds (%d) across the dies",
					rebinds, rebuilds)
			}
		}},
		{Name: "analyzeclass/ladder-bridge", Bench: func(b *testing.B) {
			p, err := analyzeSetup()
			if err != nil {
				b.Fatal(err)
			}
			c := ladderBridge()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.AnalyzeClass(context.Background(), "ladder", c, false, false); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "analyzeclass/ladder-open", Bench: func(b *testing.B) {
			// The rebuild quantum: a topology-changing ladder class takes
			// a fresh netlist, engine, pattern probe and learned
			// factorisation per analysis. The counter guard pins that
			// every timed op really rebuilds.
			p, agg, err := openSetup()
			if err != nil {
				b.Fatal(err)
			}
			c := ladderOpen()
			before := sumCounter(agg, obs.CtrFullRebuilds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.AnalyzeClass(context.Background(), "ladder", c, false, false); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if n := sumCounter(agg, obs.CtrFullRebuilds) - before; n != int64(b.N) {
				b.Fatalf("full_rebuilds = %d over %d timed ops, want one each", n, b.N)
			}
		}},
	}
}
