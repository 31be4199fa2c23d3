package macros

import (
	"sync"

	"repro/internal/memo"
	"repro/internal/signature"
	"repro/internal/spice"
)

// engineKey identifies one compiled fault-free simulation *topology*:
// the macro, its reference tap and the structural flags (DfT redesign,
// presence of the leakage path) together determine the node set,
// element set and terminal wiring of the testbench — everything a
// compiled engine's stamp programs and sparse symbolic analyses depend
// on. Values that move without moving structure — the die Variation's
// model cards, resistances and supply levels, the stimulus levels — are
// deliberately NOT part of the key: a checkout at another Variation
// revalues the pooled engine in place (Engine.Revalue), which is
// bit-identical to building afresh. Faulty engines are never pooled.
type engineKey struct {
	macro string
	vref  float64
	dft   bool
	// leak reports the comparator's flipflop leakage path is present
	// (fault-free structural variant gated on !DfT && FFLeakA > 1e-9).
	leak bool
}

// pooledEngine is one checked-in fault-free engine and the Variation
// its element values are bound to.
type pooledEngine struct {
	eng *spice.Engine
	v   Variation
}

// EnginePool caches compiled fault-free spice engines across Respond
// calls with checkout semantics: acquire removes an engine from the
// pool, giving the caller exclusive use (engines are single-goroutine
// objects), and release returns it once the caller has extracted
// everything from the analysis results (a Tran aliases engine-owned
// storage). Concurrent campaign workers that miss simply build a fresh
// engine and check it in afterwards, so the pool converges to one warm
// engine per worker per key. Reuse is bit-identical to fresh
// construction: every analysis restarts Newton from the zero vector,
// and a checkout either finds the engine bound to its own Variation or
// revalues it from a fresh build of the same testbench (see
// netlist.Circuit.Revalue, which also checks that the build matches the
// pooled topology).
//
// A nil *EnginePool disables pooling (every acquire misses and every
// release discards), so callers thread it unconditionally.
type EnginePool struct {
	mu      sync.Mutex
	engines map[engineKey][]pooledEngine
}

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool {
	return &EnginePool{engines: map[engineKey][]pooledEngine{}}
}

// acquire checks an engine out of the pool (ok false on a miss).
func (p *EnginePool) acquire(k engineKey) (pe pooledEngine, ok bool) {
	if p == nil {
		return pe, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.engines[k]
	if len(s) == 0 {
		return pe, false
	}
	pe = s[len(s)-1]
	p.engines[k] = s[:len(s)-1]
	return pe, true
}

// release checks an engine back in under its key.
func (p *EnginePool) release(k engineKey, pe pooledEngine) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.engines[k] = append(p.engines[k], pe)
}

// size reports the number of pooled (checked-in) engines.
func (p *EnginePool) size() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, s := range p.engines {
		n += len(s)
	}
	return n
}

// cmpNomKey identifies one cached comparator fault-free response: the
// circuit identity (vref, dft, variation) plus the CurrentsOnly flag,
// which changes what the response contains.
type cmpNomKey struct {
	vref         float64
	dft          bool
	currentsOnly bool
	v            Variation
}

// Baselines memoises fault-free ("good machine") baseline results that
// class analyses would otherwise re-simulate per class: the ladder's
// nominal tap voltages and nominal factorization under one variation,
// the comparator's full fault-free response (the gate-oxide-short
// worst-case reference), and the comparator's design offset. Each is a
// compute-once memo (internal/memo): concurrent first callers of a key
// join one compute instead of each running their own, and only
// completed, error-free results are kept. Entries come only from f == nil
// runs — a faulty analysis can neither read nor write the cache, so a
// fault never sees (or poisons) a fault-free baseline. Cached values are
// shared read-only across callers; all consumers only read them, and
// because the simulations are deterministic, a cache hit returns
// bit-for-bit the vector a recompute would.
//
// A nil *Baselines disables memoisation.
type Baselines struct {
	ladderTaps   *memo.Map[Variation, []float64]
	ladderFactor *memo.Map[Variation, *spice.NominalFactor]
	cmpNom       *memo.Map[cmpNomKey, *signature.Response]
	offsets      *memo.Map[offsetKey, float64]
}

// offsetKey identifies one comparator design offset: the bisection runs
// on the nominal die, so only the reference tap and the DfT flag vary.
type offsetKey struct {
	vref float64
	dft  bool
}

// NewBaselines returns an empty baseline cache.
func NewBaselines() *Baselines {
	return &Baselines{
		ladderTaps:   &memo.Map[Variation, []float64]{},
		ladderFactor: &memo.Map[Variation, *spice.NominalFactor]{},
		cmpNom:       &memo.Map[cmpNomKey, *signature.Response]{},
		offsets:      &memo.Map[offsetKey, float64]{},
	}
}

// noBaselines is what a nil *Baselines reads as: every memo is nil, and
// a nil memo just computes.
var noBaselines = &Baselines{}

// orNone returns b, or noBaselines when b is nil.
func (b *Baselines) orNone() *Baselines {
	if b == nil {
		return noBaselines
	}
	return b
}
