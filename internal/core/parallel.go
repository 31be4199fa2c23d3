// Parallel campaign execution of the methodology: the run is decomposed
// into independent units — one defect-sprinkle unit per macro, fanning
// out into one unit per analysed fault class — executed on the
// work-stealing pool of internal/campaign and merged back in canonical
// pipeline order. Because every Monte Carlo stage draws from its own
// (Seed, macro, pass) RNG stream and the class analyses are themselves
// deterministic, the merged result is bit-identical to the serial
// Pipeline.Run at the same seed, for any worker count and any schedule.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/spice"
)

// Unit-key prefixes of the methodology campaign.
const (
	keyMacro = "macro/" // + macro name → *MacroRun (discovery half)
	keyClass = "class/" // + macro/index/variant → *ClassAnalysis
)

func classKey(macroName string, t AnalysisTarget) string {
	variant := "cat"
	if t.NonCat {
		variant = "noncat"
	}
	return keyClass + macroName + "/" + strconv.Itoa(t.Index) + "/" + variant
}

// fingerprintV3 is the explicit wire form of the checkpoint fingerprint.
// Every Config field is serialised under a stable key in this struct's
// declaration order, so renaming or reordering Config fields cannot
// silently change the fingerprint (and orphan valid checkpoints) the way
// the old %+v formatting could. Adding a Config field that affects
// results requires a deliberate edit here plus a version bump of
// fingerprintVersion; TestFingerprintGolden pins the encoding.
type fingerprintV3 struct {
	Seed               int64   `json:"seed"`
	Bits               int     `json:"bits"`
	Defects            int     `json:"defects"`
	MagnitudeDefects   int     `json:"magnitude_defects"`
	MCSamples          int     `json:"mc_samples"`
	NSigma             float64 `json:"n_sigma"`
	FloorA             float64 `json:"floor_a"`
	SkipNonCat         bool    `json:"skip_non_cat"`
	MaxClassesPerMacro int     `json:"max_classes_per_macro"`
	DfT                bool    `json:"dft"`
}

const fingerprintVersion = "core-campaign-v3"

// Fingerprint identifies the configuration of a campaign checkpoint: a
// checkpoint written under one fingerprint cannot resume a run with a
// different configuration. The string is a canonical versioned JSON
// encoding of the configuration (see fingerprintV3). The vehicle is
// fingerprinted resolved (Bits 0 and 8 are the same campaign), so a
// 6-bit and an 8-bit submission can never share a checkpoint.
func Fingerprint(cfg Config, dft bool) string {
	data, err := json.Marshal(fingerprintV3{
		Seed:               cfg.Seed,
		Bits:               cfg.Vehicle().Bits,
		Defects:            cfg.Defects,
		MagnitudeDefects:   cfg.MagnitudeDefects,
		MCSamples:          cfg.MCSamples,
		NSigma:             cfg.NSigma,
		FloorA:             cfg.FloorA,
		SkipNonCat:         cfg.SkipNonCat,
		MaxClassesPerMacro: cfg.MaxClassesPerMacro,
		DfT:                dft,
	})
	if err != nil {
		panic(fmt.Sprintf("core: fingerprint encoding: %v", err)) // unreachable: fixed scalar struct
	}
	return fingerprintVersion + "|" + string(data)
}

// decodeUnit rebuilds a typed unit result from checkpointed JSON.
func decodeUnit(key string, raw json.RawMessage) (any, error) {
	switch {
	case strings.HasPrefix(key, keyMacro):
		var mr MacroRun
		if err := json.Unmarshal(raw, &mr); err != nil {
			return nil, err
		}
		return &mr, nil
	case strings.HasPrefix(key, keyClass):
		var ca ClassAnalysis
		if err := json.Unmarshal(raw, &ca); err != nil {
			return nil, err
		}
		return &ca, nil
	}
	return nil, fmt.Errorf("core: unknown campaign unit key %q", key)
}

// macroUnit builds the discovery unit of one macro; its fanout generates
// the per-class analysis units.
func (p *Pipeline) macroUnit(macroName string, dft bool) campaign.Unit {
	return campaign.Unit{
		Key:   keyMacro + macroName,
		Group: macroName,
		Run: func(ctx context.Context) (any, error) {
			return p.DiscoverClasses(ctx, macroName, dft)
		},
		Fanout: func(result any) []campaign.Unit {
			run := result.(*MacroRun)
			targets := p.analysisTargets(run)
			units := make([]campaign.Unit, 0, len(targets))
			for _, t := range targets {
				c := run.Classes[t.Index]
				nonCat := t.NonCat
				units = append(units, campaign.Unit{
					Key:   classKey(macroName, t),
					Group: macroName,
					Run: func(ctx context.Context) (any, error) {
						return p.AnalyzeClass(ctx, macroName, c, nonCat, dft)
					},
				})
			}
			return units
		},
	}
}

// RunParallel executes the whole methodology over every macro for one
// DfT setting on the campaign engine. The merged Run is bit-identical to
// the serial Run(dft) at the same configuration; a fault class whose
// unit failed (after retries) is dropped from the analyses — degrading
// the coverage report — instead of aborting the campaign. The Outcome
// carries the run metrics; it is non-nil whenever a campaign was
// started, including on cancellation.
func (p *Pipeline) RunParallel(ctx context.Context, dft bool, opts campaign.Options) (*Run, *campaign.Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The pipeline's own fan-out (the good-space Monte Carlo) inherits
	// the campaign's worker count when no explicit bound was set: the
	// campaign workers sit idle in the sprinkle barrier anyway while the
	// good space compiles, so the same parallelism budget applies.
	if p.Workers == 0 {
		if opts.Workers > 0 {
			p.Workers = opts.Workers
		} else {
			p.Workers = runtime.GOMAXPROCS(0)
		}
	}
	// Overlap the good-space compile with the campaign's defect-sprinkle
	// front half: the class-analysis units join the in-flight compile
	// through GoodSpace's compute-once memo the moment they need it. A real
	// compile failure (not a cancellation) dooms every class unit, so it
	// cancels the campaign instead of letting the units fail one by one.
	cctx, cancelCampaign := context.WithCancel(ctx)
	defer cancelCampaign()
	goodDone := make(chan error, 1)
	go func() {
		_, err := p.GoodSpace(cctx, dft)
		if err != nil && cctx.Err() == nil && !spice.IsCancelled(err) {
			cancelCampaign()
		}
		goodDone <- err
	}()
	// The nominal responses are shared by every analysis unit: compile
	// them up front, once, on the caller's goroutine.
	if _, err := p.nominals(ctx, dft); err != nil {
		cancelCampaign()
		<-goodDone
		return nil, nil, err
	}
	if opts.Fingerprint == "" {
		opts.Fingerprint = Fingerprint(p.Cfg, dft)
	}
	if opts.Decode == nil {
		opts.Decode = decodeUnit
	}
	roots := make([]campaign.Unit, 0, len(p.all))
	for _, name := range p.MacroNames() {
		roots = append(roots, p.macroUnit(name, dft))
	}
	out, err := campaign.Execute(cctx, opts, roots)
	if err != nil {
		cancelCampaign() // release the good-space goroutine before joining it
	}
	gerr := <-goodDone
	if out != nil {
		// Fold the observability aggregate (when a snapshotting sink is
		// attached) into the run metrics — including on cancellation, so
		// an interrupted run still reports where its time went. The join
		// above guarantees the goodspace spans are in the aggregate.
		out.Stats.Stages = p.Obs.Stages()
	}
	if err != nil {
		// When the campaign died because the good-space compile failed,
		// the compile error is the root cause; surface it instead of the
		// derived campaign cancellation.
		if gerr != nil && ctx.Err() == nil && !spice.IsCancelled(gerr) {
			return nil, out, gerr
		}
		return nil, out, err
	}
	// A cancellation racing the engine's final checkpoint flush must not
	// merge the partial outcome into a Run that looks complete: surface
	// the context error, keeping the (resumable) Outcome.
	if cerr := ctx.Err(); cerr != nil {
		return nil, out, cerr
	}
	if gerr != nil {
		return nil, out, gerr
	}
	run, err := p.mergeRun(dft, out)
	return run, out, err
}

// RunParallel is the package-level convenience entry point: one fresh
// pipeline, one DfT setting, executed on the campaign engine.
func RunParallel(ctx context.Context, cfg Config, dft bool, opts campaign.Options) (*Run, *campaign.Outcome, error) {
	return NewPipeline(cfg).RunParallel(ctx, dft, opts)
}

// mergeRun reassembles the campaign's keyed results into a Run in
// canonical pipeline order: macros in pipeline order, class analyses in
// descending-magnitude class order — exactly the serial traversal.
func (p *Pipeline) mergeRun(dft bool, out *campaign.Outcome) (*Run, error) {
	// The good space was compiled (and cached) before the campaign ran;
	// this lookup is a cache hit, so a background context is fine.
	good, err := p.GoodSpace(context.Background(), dft)
	if err != nil {
		return nil, err
	}
	run := &Run{Cfg: p.Cfg, DfT: dft, Good: good}
	for _, name := range p.MacroNames() {
		v, ok := out.Results[keyMacro+name]
		if !ok {
			// A lost sprinkle poisons every downstream number of the
			// macro; unlike a single class this cannot degrade gracefully.
			return nil, fmt.Errorf("core: campaign lost macro %s: %s",
				name, out.Failed[keyMacro+name])
		}
		// Merge into a copy: the *MacroRun in out.Results is checkpointed
		// campaign state, and nilling its analyses in place would corrupt
		// the Outcome for any second merge or stats pass over it.
		mr := *v.(*MacroRun)
		mr.Cat, mr.NonCat = nil, nil
		for _, t := range p.analysisTargets(&mr) {
			cv, ok := out.Results[classKey(name, t)]
			if !ok {
				continue // failed unit: degrade coverage, keep going
			}
			ca := cv.(*ClassAnalysis)
			if t.NonCat {
				mr.NonCat = append(mr.NonCat, *ca)
			} else {
				mr.Cat = append(mr.Cat, *ca)
			}
		}
		run.Macros = append(run.Macros, &mr)
	}
	return run, nil
}
