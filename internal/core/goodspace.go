// Die-sharded good-space compilation. The paper's detection criterion
// needs the multi-dimensional good-signature space — the 3σ envelope of
// the fault-free circuit over process/supply/temperature, 80 Monte
// Carlo dies — before any fault can be classified, which historically
// made it a fully serial prelude to every run. The dies are independent
// by construction (each draws its variation from its own
// StreamSeed(seed, "goodspace", i) RNG stream), so this file spreads
// them over a bounded worker group and merges the per-die responses in
// index order — exactly the slice the serial loop would have produced,
// so signature.Compile sees bit-identical input for any worker count.
//
// Pool ownership rules: the compile owns a private EnginePool and
// Baselines pair, shared by its die workers (both are safe for
// concurrent checkouts). The per-die variations never repeat, so routing
// them through the pipeline's shared caches would only flood those with
// engines and baselines no later analysis can ever hit; a private pool
// still gives the reuse that matters (the comparator's lo/hi transients
// share one engine, later dies revalue earlier dies' engines), and it is
// dropped when the compile ends. Within one die, the four
// chip-composition macros are independent circuits; when the worker
// group has more workers than dies the surplus fans out those macro
// transients (partsFor's env.fanout).
package core

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"

	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/signature"
)

// workers resolves the pipeline's fan-out bound (see the Workers field:
// 0 is automatic).
func (p *Pipeline) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// compileGoodSpace runs the good-space Monte Carlo and compiles the
// envelope. It does not touch the pipeline caches — GoodSpace owns the
// cache and the single-flight registry around this call.
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

// goodDie simulates Monte Carlo die i under env and returns its
// chip-level fault-free response. The die's span carries a private
// counter block so its deltas attribute only this die's work even when
// dies run concurrently; the block is merged into the stage-level met
// before returning.
func (p *Pipeline) goodDie(ctx context.Context, i int, dft bool, env partsEnv, met *obs.Metrics) (*signature.Response, error) {
	dieMet := met
	if p.Obs != nil {
		dieMet = &obs.Metrics{}
		defer met.Merge(dieMet)
	}
	sp := p.Obs.Start(obs.StageGoodSpaceDie, "", "die"+strconv.Itoa(i), dft, dieMet)
	defer sp.End()
	rng := rand.New(rand.NewSource(StreamSeed(p.Cfg.Seed, "goodspace", strconv.Itoa(i))))
	v := macros.Draw(rng)
	parts, err := p.partsFor(ctx, v, dft, true, dieMet, env)
	if err != nil {
		return nil, err
	}
	dieMet.Add(obs.CtrGoodspaceDies, 1)
	return p.Chipify(parts, "", nil), nil
}

// goodSamples produces the per-die responses in index order. Workers
// claim die indexes through forEach — which worker runs which die is
// schedule-dependent, but each die depends only on its index, so the
// index-ordered slice is invariant.
func (p *Pipeline) goodSamples(ctx context.Context, dft bool, met *obs.Metrics) ([]*signature.Response, error) {
	n := p.Cfg.MCSamples
	samples := make([]*signature.Response, n)
	workers := p.workers()
	// Surplus workers beyond the die count fan out the four macro
	// transients inside each die instead of idling.
	fanout := 1
	if n > 0 && workers > n {
		fanout = min((workers+n-1)/n, 4)
	}
	// The pool/baseline pair is private to the compile, never the
	// pipeline's shared caches — see the package comment.
	env := partsEnv{pool: macros.NewEnginePool(), base: macros.NewBaselines(), fanout: fanout}
	err := forEach(ctx, n, workers, func(ctx context.Context, i int) error {
		r, err := p.goodDie(ctx, i, dft, env, met)
		samples[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}
