package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// opResult is what one operation measured.
type opResult struct {
	// setup, run and cpu are seconds; allocMB is the timed phase's
	// allocation.
	setup, run, cpu, allocMB float64
	// jobs are the latencies (s) of the operation's jobs; 0 marks a
	// failed job.
	jobs []float64
	// digest identifies the operation's output bytes.
	digest string
	// attempted and failed count the operation's units of work: one
	// pipeline run, or one service job.
	attempted, failed int
	// layers are the per-layer metrics of a traced operation.
	layers map[string]float64
	// notes are diagnostics that are not metrics.
	notes map[string]any
}

// opEnv is what the harness hands one operation.
type opEnv struct {
	// rec records the operation's spans; nil for an untraced operation.
	rec *recorder
	// tmp is a directory the operation may write into.
	tmp string
}

// workload is one named benchmark workload.
type workload interface {
	op(ctx context.Context, seed int64, env opEnv) (*opResult, error)
}

// pipelineWorkload runs the methodology on a fresh core.Pipeline per
// operation. Set-up is NewPipeline plus GoodSpace(pre), the prelude every
// detection waits on; the timed phase is Run (or RunMacro) through to
// the report.JSON bytes the digest covers.
type pipelineWorkload struct {
	// macro is the macro RunMacro analyses; "" runs Pipeline.Run over
	// every macro.
	macro  string
	config func(seed int64) core.Config
}

func (w pipelineWorkload) op(ctx context.Context, seed int64, env opEnv) (*opResult, error) {
	rec := env.rec
	m := startMeter()
	setup := rec.begin("bench.setup", "", nil)
	p := core.NewPipeline(w.config(seed))
	if rec != nil {
		p.Obs = obs.New(rec)
	}
	gs := rec.begin("core.goodspace", "", setup)
	_, err := p.GoodSpace(ctx, false)
	rec.end(gs)
	rec.end(setup)
	if err != nil {
		return nil, fmt.Errorf("good space: %w", err)
	}
	r := &opResult{setup: m.setupDone(), attempted: 1}

	root := rec.begin("bench.run", "", nil)
	var run *core.Run
	if rec == nil {
		run, err = w.direct(ctx, p)
	} else {
		run, err = w.replay(ctx, p, rec, root)
	}
	if err != nil {
		return nil, err
	}
	js := rec.begin("report.json", "", root)
	data, err := report.JSON(run)
	rec.end(js)
	rec.end(root)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	m.runDone(r)
	sum := sha256.Sum256(data)
	r.digest = hex.EncodeToString(sum[:])
	r.jobs = []float64{r.setup + r.run}
	if rec != nil {
		rec.link()
		r.layers, r.notes = pipelineLayers(rec, root, gs)
	}
	return r, nil
}

// direct is the untraced timed phase: the program's own entry point.
func (w pipelineWorkload) direct(ctx context.Context, p *core.Pipeline) (*core.Run, error) {
	if w.macro == "" {
		run, err := p.Run(ctx, false)
		if err != nil {
			return nil, fmt.Errorf("run: %w", err)
		}
		return run, nil
	}
	mr, err := p.RunMacro(ctx, w.macro, false)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", w.macro, err)
	}
	return w.single(p, mr)
}

// single wraps one macro's run as a Run for report.JSON.
func (w pipelineWorkload) single(p *core.Pipeline, mr *core.MacroRun) (*core.Run, error) {
	good, err := p.GoodSpace(context.Background(), false) // cached by set-up
	if err != nil {
		return nil, err
	}
	return &core.Run{Cfg: p.Cfg, Good: good, Macros: []*core.MacroRun{mr}}, nil
}

// replay is the traced timed phase: Run and RunMacro unrolled into their
// public steps — DiscoverClasses per macro in pipeline order, then
// AnalyzeClass over the same targets in the same order — with a span
// around each call.
func (w pipelineWorkload) replay(ctx context.Context, p *core.Pipeline, rec *recorder, root *span) (*core.Run, error) {
	names := p.MacroNames()
	if w.macro != "" {
		names = []string{w.macro}
	}
	var macros []*core.MacroRun
	for _, name := range names {
		sp := rec.begin("core.discover", name, root)
		mr, err := p.DiscoverClasses(ctx, name, false)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("discover %s: %w", name, err)
		}
		macros = append(macros, mr)
	}
	for _, mr := range macros {
		for _, t := range targets(p.Cfg, mr) {
			sp := rec.begin("core.analyze", mr.Name, root)
			ca, err := p.AnalyzeClass(ctx, mr.Name, mr.Classes[t.index], t.nonCat, false)
			rec.end(sp)
			if err != nil {
				return nil, fmt.Errorf("analyze %s: %w", mr.Name, err)
			}
			if t.nonCat {
				mr.NonCat = append(mr.NonCat, *ca)
			} else {
				mr.Cat = append(mr.Cat, *ca)
			}
		}
	}
	if w.macro != "" {
		return w.single(p, macros[0])
	}
	g, err := p.GoodSpace(ctx, false) // cached by set-up
	if err != nil {
		return nil, err
	}
	return &core.Run{Cfg: p.Cfg, Good: g, Macros: macros}, nil
}

type target struct {
	index  int
	nonCat bool
}

// targets lists a macro run's class analyses in the order Run and
// RunMacro perform them: per class, up to the configured cap, the
// catastrophic analysis and then, when enabled and eligible, the
// non-catastrophic one.
func targets(cfg core.Config, mr *core.MacroRun) []target {
	n := len(mr.Classes)
	if cfg.MaxClassesPerMacro > 0 && n > cfg.MaxClassesPerMacro {
		n = cfg.MaxClassesPerMacro
	}
	var out []target
	for i := 0; i < n; i++ {
		out = append(out, target{index: i})
		if !cfg.SkipNonCat && mr.Classes[i].Fault.NonCatEligible() {
			out = append(out, target{index: i, nonCat: true})
		}
	}
	return out
}

// stageLayer maps a program stage to the per-layer self-time metric it
// feeds. The decoder's fault simulation is gate-level, every other
// macro's is analog.
func stageLayer(s *span) string {
	switch s.name {
	case obs.StageSprinkle:
		return "defectsim.sprinkle_s"
	case obs.StageCollapse:
		return "faults.collapse_s"
	case obs.StageInject:
		return "faults.inject_s"
	case obs.StageFaultSim:
		if s.macro == "decoder" {
			return "digital.faultsim_s"
		}
		return "spice.faultsim_self_s"
	case obs.StageClassify:
		return "macros.classify_self_s"
	case obs.StageDetect:
		return "signature.detect_s"
	}
	return "core.self_s" // a stage this harness does not know yet
}

// counterLayer names the per-layer metric of each program counter the
// benchmark reports.
var counterLayer = map[obs.Counter]string{
	obs.CtrNewtonIters:       "spice.newton_iters",
	obs.CtrGminRetries:       "spice.gmin_retries",
	obs.CtrSourceRetries:     "spice.source_retries",
	obs.CtrLUSolves:          "solver.lu_solves",
	obs.CtrSparseFactorHits:  "solver.sparse_factor_hits",
	obs.CtrDenseFallbacks:    "solver.dense_fallbacks",
	obs.CtrPatternReuse:      "solver.pattern_reuse_hits",
	obs.CtrRebindHits:        "macros.rebind_hits",
	obs.CtrFullRebuilds:      "macros.full_rebuilds",
	obs.CtrBaselineCacheHits: "macros.baseline_cache_hits",
	obs.CtrSprinkleDraws:     "defectsim.draws",
}

// pipelineLayers derives the per-layer metrics of one traced pipeline
// operation. Self times partition the timed phase (root); counters sum
// the outermost program spans below it, whose counter deltas do not
// overlap. The set-up group gs yields the good-space figures.
func pipelineLayers(rec *recorder, root, gs *span) (map[string]float64, map[string]any) {
	l := map[string]float64{}
	for _, m := range perLayer {
		l[m.Name] = 0
	}
	var analyzeMS []float64
	var covered float64
	for _, s := range rec.under(root) {
		self := s.self.Seconds()
		covered += self
		if s.program {
			l[stageLayer(s)] += self
			if parentIsBench(rec, s) {
				for c, name := range counterLayer {
					l[name] += float64(s.counters[c])
				}
			}
			continue
		}
		switch s.name {
		case "core.discover":
			l["core.self_s"] += self
			l["core.discover_s"] += s.dur().Seconds()
		case "core.analyze":
			l["core.self_s"] += self
			l["core.analyze_s"] += s.dur().Seconds()
			l["core.analyze_s."+s.macro] += s.dur().Seconds()
			analyzeMS = append(analyzeMS, float64(s.dur().Nanoseconds())/1e6)
		case "report.json":
			l["report.json_s"] += self
		}
	}
	l["bench.self_time_coverage"] = covered / root.dur().Seconds()
	l["core.analyses"] = float64(len(analyzeMS))
	tail := tailPercentile(len(analyzeMS))
	if len(analyzeMS) > 0 {
		l["core.analyze_ms_p50"] = median(analyzeMS)
		l["core.analyze_ms_tail"] = percentile(analyzeMS, tail)
	}
	ratio(l, "spice.ns_per_newton", 1e9*l["spice.faultsim_self_s"], l["spice.newton_iters"])
	ratio(l, "solver.dense_ratio", l["solver.dense_fallbacks"], l["solver.lu_solves"])
	ratio(l, "macros.rebind_ratio", l["macros.rebind_hits"], l["macros.rebind_hits"]+l["macros.full_rebuilds"])
	ratio(l, "defectsim.ns_per_draw", 1e9*l["defectsim.sprinkle_s"], l["defectsim.draws"])

	l["core.goodspace_s"] = gs.dur().Seconds()
	var dies float64
	for _, s := range rec.under(gs) {
		if s.name == obs.StageGoodSpaceDie {
			dies += s.dur().Seconds()
		}
	}
	ratio(l, "core.goodspace_dies_in_flight", dies, l["core.goodspace_s"])
	return l, map[string]any{"analyze_tail_pct": tail}
}

// ratio sets l[name] = num/den, leaving 0 when den is 0.
func ratio(l map[string]float64, name string, num, den float64) {
	if den != 0 {
		l[name] = num / den
	}
}

// parentIsBench reports whether s's parent is a bench span, i.e. s is an
// outermost program span.
func parentIsBench(rec *recorder, s *span) bool {
	return s.parent > 0 && !rec.spans[s.parent-1].program
}
