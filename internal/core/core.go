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

	"repro/internal/campaign"
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
	// Workers bounds the pipeline's fan-out: the campaign workers of Run
	// and RunMacro, and the good-space Monte Carlo's die group (see
	// goodspace.go) of every entry point. 0 is automatic — GOMAXPROCS —
	// and 1 runs strictly serially. Any setting produces byte-identical
	// output: every unit of work depends only on its key or index, and
	// every merge is canonical.
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

// partsFor simulates the currents-only fault-free response of the
// chip-composition macros under one variation, through pool.
func (p *Pipeline) partsFor(ctx context.Context, v macros.Variation, dft bool, met *obs.Metrics, pool *macros.EnginePool) (map[string]*signature.Response, error) {
	opt := macros.RespondOpts{
		Var: v, DfT: dft, CurrentsOnly: true,
		Obs: p.Obs, Metrics: met, Pool: pool,
	}
	parts := make(map[string]*signature.Response, 4)
	for _, m := range []macros.Macro{p.cmp, p.ladder, p.clock, p.decoder} {
		resp, err := m.Respond(ctx, nil, opt)
		if err != nil {
			if !spice.IsCancelled(err) {
				err = fmt.Errorf("core: nominal %s: %w", m.Name(), err)
			}
			return nil, err
		}
		parts[m.Name()] = resp
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
		return p.partsFor(ctx, macros.Nominal(), dft, nil, p.pool)
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
// macro: Run restricted to that macro's discovery unit and the class
// units it fans out into. The result is byte-identical for any worker
// count.
func (p *Pipeline) RunMacro(ctx context.Context, macroName string, dft bool) (*MacroRun, error) {
	if err := p.ValidateMacro(macroName); err != nil {
		return nil, err
	}
	run, err := p.run(ctx, dft, []string{macroName})
	if err != nil {
		return nil, err
	}
	return run.Macros[0], nil
}

// Run executes the whole methodology over every macro for one DfT
// setting: a store-less campaign execution (see execute) on Workers
// campaign workers. The result is byte-identical to the fully-sequential
// traversal for any worker count: every Monte Carlo stage draws from its
// own RNG stream, every analysis depends only on its class, and the
// merge order is canonical. Unlike RunParallel, Run does not degrade
// around a failed unit: it returns an error naming every failed unit.
func (p *Pipeline) Run(ctx context.Context, dft bool) (*Run, error) {
	return p.run(ctx, dft, p.MacroNames())
}

// run executes the named macros without a checkpoint store. It returns
// no Outcome, so a unit the campaign gave up on is an error naming every
// failed unit, keys sorted, rather than a silently degraded report.
func (p *Pipeline) run(ctx context.Context, dft bool, names []string) (*Run, error) {
	run, out, err := p.execute(ctx, dft, names, campaign.Options{Workers: p.workers()})
	if err != nil {
		return nil, err
	}
	if len(out.Failed) > 0 {
		keys := make([]string, 0, len(out.Failed))
		for k := range out.Failed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, fmt.Errorf("core: %d units failed: %s (first: %s)",
			len(keys), strings.Join(keys, ", "), out.Failed[keys[0]])
	}
	return run, nil
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
