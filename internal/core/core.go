// Package core is the primary contribution of the reproduction: the
// defect-oriented test methodology for complex mixed-signal circuits of
// Fig. 1 in the paper. It orchestrates, per macro cell, the full path
//
//	layout → defect simulation → fault collapsing → fault classes →
//	circuit-level fault models → fault simulation → fault signatures →
//	sensitisation/propagation → detectability
//
// and compiles the per-macro results into the circuit-level coverage
// figures (area-scaled, assuming equal defect density over the die), both
// before and after the DfT measures.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/defectsim"
	"repro/internal/faults"
	"repro/internal/macros"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/signature"
	"repro/internal/spice"
)

// StreamSeed derives the RNG seed of one named Monte Carlo stream from
// the campaign seed (FNV-1a over the seed bytes and the stream labels).
// Every Monte Carlo stage draws from its own stream — per (macro, pass)
// for the defect sprinkles, per die for the good-space sampling — so
// results are independent of stage ordering and of how units are
// scheduled across campaign workers.
func StreamSeed(seed int64, labels ...string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, l := range labels {
		h.Write([]byte{0})
		h.Write([]byte(l))
	}
	return int64(h.Sum64())
}

// Config parameterises a methodology run.
type Config struct {
	// Bits selects the vehicle: the N-bit member of the flash-converter
	// family (2^N comparators and ladder segments). 0 means the default
	// 8-bit vehicle of the paper's case study — the zero value and an
	// explicit 8 are the same campaign, and fingerprint identically.
	Bits int
	// Seed drives every Monte Carlo stage deterministically.
	Seed int64
	// Defects is the class-discovery sprinkle size per macro (the paper
	// used 25 000 on the comparator).
	Defects int
	// MagnitudeDefects is the second sprinkle used to give the classes
	// statistically significant magnitudes (the paper used 10 000 000;
	// runtimes here suggest less — only ratios matter).
	MagnitudeDefects int
	// MCSamples is the number of good-space Monte Carlo dies.
	MCSamples int
	// NSigma is the current-detection threshold multiple (paper: 3).
	NSigma float64
	// FloorA is the tester current-measurement floor (A).
	FloorA float64
	// SkipNonCat disables the non-catastrophic analysis.
	SkipNonCat bool
	// MaxClassesPerMacro caps the per-macro class analyses (0 = all);
	// classes are analysed in descending magnitude, and coverage is
	// reported over the analysed population.
	MaxClassesPerMacro int
}

// Vehicle resolves the configured vehicle spec (Bits == 0 is the default
// 8-bit vehicle). The spec is not validated here — CLIs and JobSpec
// validate before a pipeline is built.
func (c Config) Vehicle() macros.Vehicle {
	if c.Bits == 0 {
		return macros.DefaultVehicle()
	}
	return macros.Vehicle{Bits: c.Bits}
}

// DefaultConfig returns the full-fidelity configuration.
func DefaultConfig() Config {
	return Config{
		Seed:             1995,
		Defects:          25000,
		MagnitudeDefects: 250000,
		MCSamples:        80,
		NSigma:           3,
		FloorA:           2e-6,
	}
}

// QuickConfig returns a configuration small enough for unit tests.
func QuickConfig() Config {
	return Config{
		Seed:               1995,
		Defects:            4000,
		MagnitudeDefects:   0,
		MCSamples:          12,
		NSigma:             3,
		FloorA:             2e-6,
		MaxClassesPerMacro: 25,
	}
}

// Detection records which mechanisms catch one fault class at the circuit
// edge.
type Detection struct {
	// Missing is the voltage mechanism: the missing-code test fails.
	Missing bool
	// IVdd, IDDQ and Iin are the three current mechanisms.
	IVdd, IDDQ, Iin bool
}

// Voltage reports voltage-test detection.
func (d Detection) Voltage() bool { return d.Missing }

// Current reports detection by any current measurement.
func (d Detection) Current() bool { return d.IVdd || d.IDDQ || d.Iin }

// Any reports detection by any mechanism.
func (d Detection) Any() bool { return d.Voltage() || d.Current() }

// ClassAnalysis is the outcome for one fault class (catastrophic or
// non-catastrophic variant).
type ClassAnalysis struct {
	Class  faults.Class
	NonCat bool
	// Resp is the macro-level response; Chip is the combined
	// circuit-edge measurement vector it produced.
	Resp *signature.Response
	Chip *signature.Response
	Det  Detection
}

// MacroRun holds everything the pipeline learned about one macro.
type MacroRun struct {
	Name  string
	Count int
	Area  float64
	// DiscoveryDefects/Faults are the class-discovery sprinkle stats.
	DiscoveryDefects, DiscoveryFaults int
	// MagnitudeDefects is the magnitude-pass sprinkle size (0 if the
	// discovery pass doubles as the magnitude source).
	MagnitudeDefects int
	// UnmatchedFaults counts magnitude-pass faults whose class was not
	// present in the discovery catalogue (the statistical tail).
	UnmatchedFaults int
	// Classes are the collapsed fault classes ordered by magnitude.
	Classes []faults.Class
	// TotalFaults is the summed class magnitude.
	TotalFaults int
	// LocalFaults counts faults confined to this macro's internal nets.
	LocalFaults int
	// FaultRate is faults per sprinkled defect.
	FaultRate float64
	// Cat and NonCat are the per-class analyses.
	Cat, NonCat []ClassAnalysis
}

// Weight returns the macro's share of the chip fault population:
// area × instance count × fault-per-defect rate (equal defect density).
func (m *MacroRun) Weight() float64 {
	return m.Area * float64(m.Count) * m.FaultRate
}

// Run is the complete methodology outcome for one DfT setting.
type Run struct {
	Cfg    Config
	DfT    bool
	Good   *signature.GoodSpace
	Macros []*MacroRun
}

// Macro returns the named macro run (nil if absent).
func (r *Run) Macro(name string) *MacroRun {
	for _, m := range r.Macros {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Pipeline binds the macro set to a configuration. A Pipeline is safe
// for concurrent AnalyzeClass/RunMacro calls: the lazy caches below are
// compute-once memos, and the macros themselves are either stateless or
// internally synchronised.
type Pipeline struct {
	Cfg  Config
	Proc *process.Process
	// Obs receives the stage spans (sprinkle, collapse, inject,
	// faultsim, classify, detect, goodspace) of every analysis run on
	// this pipeline. nil — the default — is the zero-cost noop.
	Obs *obs.Observer
	// Workers bounds each in-process fan-out of the pipeline: Run's
	// discovery and class analyses, RunMacro's class analyses, and the
	// good-space Monte Carlo's die group (see goodspace.go). 0 is
	// automatic — GOMAXPROCS, or the campaign worker count inside
	// RunParallel — and 1 runs strictly serially. Any setting produces
	// byte-identical output: every unit of work depends only on its
	// index, and every merge is index-ordered.
	Workers int

	veh     macros.Vehicle
	cmp     *macros.ComparatorMacro
	ladder  *macros.LadderMacro
	biasgen *macros.BiasgenMacro
	clock   *macros.ClockgenMacro
	decoder *macros.DecoderMacro
	all     []macros.Macro

	// The compute-once results (see internal/memo): nominal per-macro
	// responses and compiled good spaces per DfT flag, and class
	// discoveries per "dft/macro" for ExecuteUnit (the remote-worker
	// path, where many class units of one macro arrive independently).
	nomParts   memo.Map[bool, map[string]*signature.Response]
	good       memo.Map[bool, *signature.GoodSpace]
	discovered memo.Map[string, *MacroRun]

	// pool reuses fault-free simulation engines across class analyses
	// (checkout semantics — concurrent campaign workers each hold at
	// most one engine per circuit key at a time); base memoises the
	// fault-free baseline responses the analyses compare against. Both
	// are bit-identity-preserving caches: a hit returns exactly what a
	// recompute would, so serial and parallel campaigns stay byte-equal.
	pool *macros.EnginePool
	base *macros.Baselines
}

// NewPipeline constructs the five-macro pipeline of the configured
// vehicle (the paper's case study at the default 8-bit resolution).
func NewPipeline(cfg Config) *Pipeline {
	veh := cfg.Vehicle()
	p := &Pipeline{
		Cfg:     cfg,
		Proc:    process.Default(),
		veh:     veh,
		cmp:     macros.NewComparator(veh),
		ladder:  macros.NewLadder(veh),
		biasgen: macros.NewBiasgen(veh),
		clock:   macros.NewClockgen(veh),
		decoder: macros.NewDecoder(veh),
		pool:    macros.NewEnginePool(),
		base:    macros.NewBaselines(),
	}
	p.all = []macros.Macro{p.cmp, p.ladder, p.biasgen, p.clock, p.decoder}
	return p
}

// MacroNames lists the macros in pipeline order.
func (p *Pipeline) MacroNames() []string {
	out := make([]string, len(p.all))
	for i, m := range p.all {
		out[i] = m.Name()
	}
	return out
}

// partsEnv carries the resources one fault-free parts simulation runs
// with: the engine pool and baseline cache to go through (the good-space
// compile owns a private pair — see goodspace.go — while the nominal
// cache uses the pipeline's shared pair) and how many of the independent
// macro transients may run concurrently.
type partsEnv struct {
	pool *macros.EnginePool
	base *macros.Baselines
	// fanout bounds the concurrent macro simulations (<= 1 is the
	// serial loop).
	fanout int
}

// sharedEnv is the pipeline-owned serial environment.
func (p *Pipeline) sharedEnv() partsEnv {
	return partsEnv{pool: p.pool, base: p.base}
}

// partsFor simulates the fault-free response of the chip-composition
// macros under one variation. The four macros are independent circuits,
// so env.fanout > 1 spreads them over a bounded goroutine group; the
// assembled map is identical either way (each macro's simulation is
// deterministic and keyed by name).
func (p *Pipeline) partsFor(ctx context.Context, v macros.Variation, dft bool, currentsOnly bool, met *obs.Metrics, env partsEnv) (map[string]*signature.Response, error) {
	opt := macros.RespondOpts{
		Var: v, DfT: dft, CurrentsOnly: currentsOnly,
		Obs: p.Obs, Metrics: met,
		Pool: env.pool, Base: env.base,
	}
	ms := []macros.Macro{p.cmp, p.ladder, p.clock, p.decoder}
	resps := make([]*signature.Response, len(ms))
	err := forEach(ctx, len(ms), env.fanout, func(ctx context.Context, i int) error {
		resp, err := ms[i].Respond(ctx, nil, opt)
		if err != nil && !spice.IsCancelled(err) {
			return fmt.Errorf("core: nominal %s: %w", ms[i].Name(), err)
		}
		resps[i] = resp
		return err
	})
	if err != nil {
		return nil, err
	}
	parts := make(map[string]*signature.Response, len(ms))
	for i, m := range ms {
		parts[m.Name()] = resps[i]
	}
	return parts, nil
}

// get reads a measurement with fallback (missing keys read as the
// fallback map's value; missing there too reads 0).
func get(m, fb map[string]float64, k string) float64 {
	if v, ok := m[k]; ok {
		return v
	}
	return fb[k]
}

// Chipify combines macro-level current measurements into the circuit-edge
// measurement vector. faultyMacro names the macro whose response `f`
// replaces its nominal contribution ("" for the fault-free chip). A
// comparator fault lives in one of the vehicle's 2^N slices; a
// bias-generator fault shifts all of them.
func (p *Pipeline) Chipify(parts map[string]*signature.Response, faultyMacro string, f *signature.Response) *signature.Response {
	out := &signature.Response{Currents: map[string]float64{}}
	cmpN := parts["comparator"].Currents
	ladN := parts["ladder"].Currents
	clkN := parts["clockgen"].Currents
	decN := parts["decoder"].Currents

	cmpF, ladF, clkF, decF := cmpN, ladN, clkN, decN
	nFaulty := 0.0
	switch faultyMacro {
	case "comparator":
		cmpF = f.Currents
		nFaulty = 1
	case "biasgen":
		// The bias lines feed every slice.
		cmpF = f.Currents
		nFaulty = float64(p.veh.Comparators())
	case "ladder":
		ladF = f.Currents
	case "clockgen":
		clkF = f.Currents
	case "decoder":
		decF = f.Currents
	}
	nNom := float64(p.veh.Comparators()) - nFaulty

	for _, ph := range []string{"samp", "amp", "latch"} {
		for _, lvl := range []string{"lo", "hi"} {
			k := ph + "." + lvl
			out.Currents["ivdd."+k] = nNom*get(cmpN, cmpN, "slice.ivdd."+k) +
				nFaulty*get(cmpF, cmpN, "slice.ivdd."+k) +
				get(cmpF, cmpN, "bias.ivdd."+k)
			out.Currents["iddq."+k] = get(cmpF, cmpN, "iddq."+k)
		}
	}
	for _, lvl := range []string{"lo", "hi"} {
		out.Currents["iin.vin."+lvl] = nNom*get(cmpN, cmpN, "iin.vin."+lvl) +
			nFaulty*get(cmpF, cmpN, "iin.vin."+lvl)
		// The reference-path current sums the ladder's terminal current
		// (its "hi"/"lo" name the two reference pins) with the slices'
		// tap currents (their "hi"/"lo" name the input level); both are
		// observed at the same reference pins of the package, so they
		// belong to the same chip-level measurement.
		out.Currents["iin.vref."+lvl] = get(ladF, ladN, "iin.vref."+lvl) +
			nNom*get(cmpN, cmpN, "iin.vref."+lvl) +
			nFaulty*get(cmpF, cmpN, "iin.vref."+lvl)
	}
	for si := 0; si < 4; si++ {
		k := fmt.Sprintf("iddq.s%d", si)
		out.Currents[k] = get(clkF, clkN, k)
	}
	out.Currents["iin.phi"] = get(clkF, clkN, "iin.phi")
	out.Currents["iddq.dc"] = get(decF, decN, "iddq.dc")
	return out
}

// GoodSpace compiles (and caches) the chip-level good-signature space for
// one DfT setting: a Monte Carlo over dies, each die one shared variation
// drawn from its own per-die RNG stream — the same dies regardless of
// DfT setting, sampling order, worker count or parallel scheduling (see
// goodspace.go for the die-sharded compile). It is a compute-once result:
// concurrent callers share a single compile, cancelling ctx aborts the
// wait (and, for the compiling caller, the compile itself) in bounded
// time, and a compile that fails is not cached.
func (p *Pipeline) GoodSpace(ctx context.Context, dft bool) (*signature.GoodSpace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g, _, err := p.good.Do(ctx, dft, func() (*signature.GoodSpace, error) {
		return p.compileGoodSpace(ctx, dft)
	})
	return g, err
}

// nominals returns (and caches) the nominal-variation fault-free parts.
func (p *Pipeline) nominals(ctx context.Context, dft bool) (map[string]*signature.Response, error) {
	parts, _, err := p.nomParts.Do(ctx, dft, func() (map[string]*signature.Response, error) {
		return p.partsFor(ctx, macros.Nominal(), dft, true, nil, p.sharedEnv())
	})
	return parts, err
}

// macroByName resolves a pipeline macro.
func (p *Pipeline) macroByName(name string) (macros.Macro, error) {
	for _, m := range p.all {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("core: unknown macro %q (valid macros: %s)",
		name, strings.Join(p.MacroNames(), ", "))
}

// ValidateMacro reports whether name resolves to a pipeline macro,
// returning the same unknown-macro error as the run entry points. CLIs
// use it to fail fast before any work is scheduled.
func (p *Pipeline) ValidateMacro(name string) error {
	_, err := p.macroByName(name)
	return err
}

// AnalyzeClass runs the fault simulation + propagation + detection for
// one fault class. Cancelling ctx aborts the underlying solves in
// bounded time; the returned error then satisfies spice.IsCancelled and
// the half-finished analysis is discarded, never classified.
func (p *Pipeline) AnalyzeClass(ctx context.Context, macroName string, c faults.Class, nonCat, dft bool) (*ClassAnalysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := p.macroByName(macroName)
	if err != nil {
		return nil, err
	}
	good, err := p.GoodSpace(ctx, dft)
	if err != nil {
		return nil, err
	}
	parts, err := p.nominals(ctx, dft)
	if err != nil {
		return nil, err
	}
	// Span labels and the counter block exist only when an observer is
	// attached — the noop default must not add a single allocation to
	// the analysis path.
	var label string
	var met *obs.Metrics
	if p.Obs != nil {
		label = c.Fault.Key()
		if nonCat {
			label += ":noncat"
		}
		met = &obs.Metrics{}
	}
	resp, err := m.Respond(ctx, &c.Fault, macros.RespondOpts{
		NonCat: nonCat, Var: macros.Nominal(), DfT: dft,
		Obs: p.Obs, Class: label, Macro: macroName, Metrics: met,
		Pool: p.pool, Base: p.base,
	})
	if err != nil {
		// A cancelled analysis must surface as an abort — folding it
		// into a fault-free response would checkpoint a bogus result.
		if spice.IsCancelled(err) || ctx.Err() != nil {
			return nil, err
		}
		// Fault model not applicable to this netlist (e.g. the DfT
		// redesign removed the structure): behaves fault-free.
		resp = &signature.Response{Voltage: signature.VSigNone, Currents: map[string]float64{}}
	}
	sp := p.Obs.Start(obs.StageDetect, macroName, label, dft, met)
	chip := p.Chipify(parts, macroName, resp)
	det := Detection{Missing: resp.MissingCode}
	det.IVdd, det.IDDQ, det.Iin = good.Detect(chip)
	sp.End()
	return &ClassAnalysis{Class: c, NonCat: nonCat, Resp: resp, Chip: chip, Det: det}, nil
}

// DiscoverClasses runs the layout → defect-simulation → fault-collapsing
// front half of the test path for one macro: both sprinkle passes and the
// class catalogue, but no class analyses. Each sprinkle draws from its
// own (Seed, macro, pass) RNG stream.
func (p *Pipeline) DiscoverClasses(ctx context.Context, macroName string, dft bool) (*MacroRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := p.macroByName(macroName)
	if err != nil {
		return nil, err
	}
	cell := m.Layout(dft)
	sim := defectsim.New(cell, p.Proc)
	met := &obs.Metrics{}
	sim.Metrics = met

	// Two-pass statistics, as in the paper: the class catalogue comes
	// from the discovery sprinkle (25 000 defects on the comparator);
	// a larger magnitude sprinkle then re-weights those classes with
	// statistically significant counts (the paper used 10 000 000).
	// Magnitude-pass faults whose class was not discovered are counted
	// as the unmatched tail.
	sp := p.Obs.Start(obs.StageSprinkle, macroName, "discovery", dft, met)
	discovery, err := sim.Sprinkle(ctx, p.Cfg.Defects, StreamSeed(p.Cfg.Seed, "sprinkle", macroName, "discovery"))
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = p.Obs.Start(obs.StageCollapse, macroName, "discovery", dft, met)
	classes := faults.Collapse(discovery.Faults)
	sp.End()
	source := discovery
	magDefects := 0
	unmatched := 0
	if p.Cfg.MagnitudeDefects > p.Cfg.Defects {
		sp = p.Obs.Start(obs.StageSprinkle, macroName, "magnitude", dft, met)
		source, err = sim.Sprinkle(ctx, p.Cfg.MagnitudeDefects, StreamSeed(p.Cfg.Seed, "sprinkle", macroName, "magnitude"))
		sp.End()
		if err != nil {
			return nil, err
		}
		magDefects = p.Cfg.MagnitudeDefects
		sp = p.Obs.Start(obs.StageCollapse, macroName, "magnitude", dft, met)
		byKey := map[string]int{}
		for i := range classes {
			byKey[classes[i].Fault.Key()] = i
			classes[i].Count = 0
		}
		for _, f := range source.Faults {
			if i, ok := byKey[f.Key()]; ok {
				classes[i].Count++
			} else {
				unmatched++
			}
		}
		// Drop classes that received no magnitude mass and restore the
		// descending-magnitude order.
		kept := classes[:0]
		for _, c := range classes {
			if c.Count > 0 {
				kept = append(kept, c)
			}
		}
		classes = kept
		sort.Slice(classes, func(i, j int) bool {
			if classes[i].Count != classes[j].Count {
				return classes[i].Count > classes[j].Count
			}
			return classes[i].Fault.Key() < classes[j].Fault.Key()
		})
		sp.End()
	}
	// The analysis cap (Config.MaxClassesPerMacro) is applied later, in
	// analysisTargets — but it is decided here, so this is where silent
	// truncation is made loud: the counter records how many discovered
	// classes will never be analysed.
	if n := len(classes); p.Cfg.MaxClassesPerMacro > 0 && n > p.Cfg.MaxClassesPerMacro {
		sp = p.Obs.Start(obs.StageCollapse, macroName, "truncate", dft, met)
		met.Add(obs.CtrClassesTruncated, int64(n-p.Cfg.MaxClassesPerMacro))
		sp.End()
	}
	run := &MacroRun{
		Name:             m.Name(),
		Count:            m.Count(),
		Area:             cell.Area(),
		DiscoveryDefects: discovery.Defects,
		DiscoveryFaults:  len(discovery.Faults),
		MagnitudeDefects: magDefects,
		UnmatchedFaults:  unmatched,
		Classes:          classes,
		FaultRate:        source.FaultRate(),
	}
	for _, f := range source.Faults {
		if f.Local {
			run.LocalFaults++
		}
	}
	run.TotalFaults = len(source.Faults) - unmatched
	return run, nil
}

// AnalysisTarget names one class analysis of a macro run: the class index
// and the fault-model variant.
type AnalysisTarget struct {
	Index  int
	NonCat bool
}

// analysisTargets lists the class analyses the configuration asks for, in
// the canonical (serial) order: per class, the catastrophic analysis and
// then — when eligible and enabled — the non-catastrophic one.
func (p *Pipeline) analysisTargets(run *MacroRun) []AnalysisTarget {
	n := len(run.Classes)
	if p.Cfg.MaxClassesPerMacro > 0 && n > p.Cfg.MaxClassesPerMacro {
		n = p.Cfg.MaxClassesPerMacro
	}
	var out []AnalysisTarget
	for i := 0; i < n; i++ {
		out = append(out, AnalysisTarget{Index: i})
		if !p.Cfg.SkipNonCat && run.Classes[i].Fault.NonCatEligible() {
			out = append(out, AnalysisTarget{Index: i, NonCat: true})
		}
	}
	return out
}

// RunMacro executes the complete defect-oriented test path for one
// macro. Its class analyses fan out over Workers goroutines, like Run's,
// and the result is byte-identical for any worker count.
func (p *Pipeline) RunMacro(ctx context.Context, macroName string, dft bool) (*MacroRun, error) {
	run, err := p.DiscoverClasses(ctx, macroName, dft)
	if err != nil {
		return nil, err
	}
	if err := p.analyze(ctx, []*MacroRun{run}, dft, p.workers()); err != nil {
		return nil, err
	}
	return run, nil
}

// analyze runs the class analyses of runs on up to workers goroutines
// and appends them to their macro runs in the canonical (serial) order:
// macros in the given order, each in analysisTargets order. The results
// land in index slots first, so the order never depends on scheduling.
func (p *Pipeline) analyze(ctx context.Context, runs []*MacroRun, dft bool, workers int) error {
	type job struct {
		mr *MacroRun
		t  AnalysisTarget
	}
	var jobs []job
	for _, mr := range runs {
		for _, t := range p.analysisTargets(mr) {
			jobs = append(jobs, job{mr, t})
		}
	}
	cas := make([]*ClassAnalysis, len(jobs))
	err := forEach(ctx, len(jobs), workers, func(ctx context.Context, i int) error {
		j := jobs[i]
		ca, err := p.AnalyzeClass(ctx, j.mr.Name, j.mr.Classes[j.t.Index], j.t.NonCat, dft)
		cas[i] = ca
		return err
	})
	if err != nil {
		return err
	}
	for i, j := range jobs {
		if j.t.NonCat {
			j.mr.NonCat = append(j.mr.NonCat, *cas[i])
		} else {
			j.mr.Cat = append(j.mr.Cat, *cas[i])
		}
	}
	return nil
}

// Run executes the whole methodology over every macro for one DfT
// setting. The good-space Monte Carlo and the nominal responses are
// compiled concurrently with the defect-sprinkle/fault-collapsing front
// half — they share no state until detection — and joined before the
// first class analysis. The macros' discoveries, and then all of their
// class analyses, fan out over Workers goroutines. The result is
// byte-identical to the fully-sequential traversal for any worker
// count: every Monte Carlo stage draws from its own RNG stream, every
// analysis depends only on its class, and the merge order is canonical.
func (p *Pipeline) Run(ctx context.Context, dft bool) (*Run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	goodDone := make(chan error, 1)
	go func() {
		_, err := p.GoodSpace(gctx, dft)
		if err == nil {
			_, err = p.nominals(gctx, dft)
		}
		goodDone <- err
	}()
	out := &Run{Cfg: p.Cfg, DfT: dft, Macros: make([]*MacroRun, len(p.all))}
	err := forEach(ctx, len(p.all), p.workers(), func(ctx context.Context, i int) error {
		mr, err := p.DiscoverClasses(ctx, p.all[i].Name(), dft)
		out.Macros[i] = mr
		return err
	})
	if err != nil {
		cancel()
		<-goodDone
		return nil, err
	}
	if err := <-goodDone; err != nil {
		return nil, err
	}
	good, err := p.GoodSpace(ctx, dft) // cache hit: compiled above
	if err != nil {
		return nil, err
	}
	out.Good = good
	if err := p.analyze(ctx, out.Macros, dft, p.workers()); err != nil {
		return nil, err
	}
	return out, nil
}

// analysedMagnitude sums the magnitudes of the analysed classes.
func analysedMagnitude(as []ClassAnalysis) int {
	n := 0
	for _, a := range as {
		n += a.Class.Count
	}
	return n
}

// SortedKinds returns the fault kinds ordered as in the paper's Table 1.
func SortedKinds() []faults.Kind {
	return []faults.Kind{
		faults.Short, faults.ExtraContactKind, faults.GOSPinhole,
		faults.JunctionPinholeKind, faults.ThickOxPinhole,
		faults.Open, faults.NewDevice, faults.ShortedDevice,
	}
}
