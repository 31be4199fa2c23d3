// Die-sharded good-space compilation. The paper's detection criterion
// needs the multi-dimensional good-signature space — the 3σ envelope of
// the fault-free circuit over process/supply/temperature, 80 Monte
// Carlo dies — before any fault can be classified, which historically
// made it a fully serial prelude to every run. The dies are independent
// by construction (each draws its variation from its own
// StreamSeed(seed, "goodspace", i) RNG stream), so each die is one unit
// of the campaign engine, keyed by its index — the same scheduler that
// runs the class analyses — and the per-die responses are read back in
// index order: exactly the slice the serial loop would have produced,
// so signature.Compile sees bit-identical input for any worker count.
//
// Pool ownership: the compile owns a private EnginePool, shared by its
// die units (it is safe for concurrent checkouts) and dropped when the
// compile ends. It still gives the reuse that matters — the
// comparator's lo/hi transients share one engine, later dies revalue
// earlier dies' engines — while the per-die variations, which never
// repeat, stay out of the pipeline's pool: running the dies on that pool
// kept their engines alive for the whole run and raised the `decoder`
// benchmark's peak RSS from 35-38 MB to 44-45 MB. The dies run
// currents-only, which reads no baseline, so the compile needs no
// Baselines of its own.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/signature"
)

// compileGoodSpace runs the good-space Monte Carlo and compiles the
// envelope. It does not touch the pipeline caches — GoodSpace owns the
// compute-once memo around this call.
func (p *Pipeline) compileGoodSpace(ctx context.Context, dft bool) (*signature.GoodSpace, error) {
	met := &obs.Metrics{}
	sp := p.Obs.Start(obs.StageGoodSpace, "", "", dft, met)
	samples, err := p.goodSamples(ctx, dft, met)
	sp.End()
	if err != nil {
		return nil, err
	}
	return signature.Compile(samples, p.Cfg.NSigma, p.Cfg.FloorA), nil
}

// goodDie simulates Monte Carlo die i through pool and returns its
// chip-level fault-free response. The die's span carries a private
// counter block so its deltas attribute only this die's work even when
// dies run concurrently; the block is merged into the stage-level met
// before returning.
func (p *Pipeline) goodDie(ctx context.Context, i int, dft bool, pool *macros.EnginePool, met *obs.Metrics) (*signature.Response, error) {
	dieMet := met
	if p.Obs != nil {
		dieMet = &obs.Metrics{}
		defer met.Merge(dieMet)
	}
	sp := p.Obs.Start(obs.StageGoodSpaceDie, "", "die"+strconv.Itoa(i), dft, dieMet)
	defer sp.End()
	rng := rand.New(rand.NewSource(StreamSeed(p.Cfg.Seed, "goodspace", strconv.Itoa(i))))
	v := macros.Draw(rng)
	parts, err := p.partsFor(ctx, v, dft, dieMet, pool)
	if err != nil {
		return nil, err
	}
	dieMet.Add(obs.CtrGoodspaceDies, 1)
	return p.Chipify(parts, "", nil), nil
}

// goodSamples runs every die as one campaign unit on Workers workers
// and returns the responses in index order: which worker runs which die
// is schedule-dependent, but each die depends only on its index. A die
// is deterministic, so it is never retried; a failed die lets the
// others finish and then fails the compile with its own error (the
// lowest failed index's), or with an error naming it when it panicked.
func (p *Pipeline) goodSamples(ctx context.Context, dft bool, met *obs.Metrics) ([]*signature.Response, error) {
	n := p.Cfg.MCSamples
	// The pool is private to the compile, never the pipeline's — see
	// the package comment.
	pool := macros.NewEnginePool()
	errs := make([]error, n)
	units := make([]campaign.Unit, n)
	for i := range units {
		units[i] = campaign.Unit{Key: strconv.Itoa(i), Run: func(ctx context.Context) (any, error) {
			r, err := p.goodDie(ctx, i, dft, pool, met)
			errs[i] = err
			return r, err
		}}
	}
	out, err := campaign.Execute(ctx, campaign.Options{Workers: p.Workers, MaxRetries: -1}, units)
	if err != nil {
		return nil, err
	}
	samples := make([]*signature.Response, n)
	for i, u := range units {
		if msg, failed := out.Failed[u.Key]; failed {
			if errs[i] != nil {
				return nil, errs[i]
			}
			return nil, fmt.Errorf("core: good-space die %d: %s", i, msg)
		}
		samples[i] = out.Results[u.Key].(*signature.Response)
	}
	return samples, nil
}
