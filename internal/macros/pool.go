package macros

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/faults"
	"repro/internal/memo"
	"repro/internal/netlist"
	"repro/internal/signature"
	"repro/internal/spice"
)

// engineKey identifies one compiled simulation *topology*: the macro,
// its reference tap, the structural flags (DfT redesign, presence of
// the leakage path) and the fault identity together determine the node
// set, element set and terminal wiring of the testbench — everything a
// compiled engine's stamp programs and sparse symbolic analyses depend
// on. Values that move without moving structure — the die Variation's
// model cards, resistances and supply levels, a conductance-only fault's
// resistance, the input-source waveform — are deliberately NOT part of
// the key: checkouts rebind them in place (Engine.Revalue /
// RetuneVSource), which is bit-identical to building afresh. Topology-
// changing faults (opens that split nodes, new devices, bridges to
// absent nets) have no stable key and are never pooled.
type engineKey struct {
	macro string
	vref  float64
	dft   bool
	// leak reports the comparator's flipflop leakage path is present
	// (fault-free structural variant gated on !DfT && FFLeakA > 1e-9).
	leak bool
	// fault is the injected-element identity ("" = fault-free): the
	// class equivalence key plus everything else that changes the
	// planned element set. See faultKey.
	fault string
}

// faultKey canonicalises a fault to its pool-key string: the class
// equivalence key plus the model knobs that change the injected element
// set or its values (resistance override, near-miss model, gate-oxide
// variant). Fault-free runs key as "".
func faultKey(f *faults.Fault, io faults.InjectOptions) string {
	if f == nil {
		return ""
	}
	return fmt.Sprintf("%s|r%x|nc%t|g%d", f.Key(), math.Float64bits(f.Res), io.NonCat, io.GOS)
}

// maxFaultyKeys bounds how many distinct faulty topologies the pool
// retains engines for. Fault-free keys are few (one per macro/DfT/leak
// variant) and live forever; faulty keys arrive one per analysed class,
// so without a bound a long campaign would pin an engine per class.
// Eviction is least-recently-used; an evicted class simply rebuilds on
// its next (unlikely) appearance.
const maxFaultyKeys = 16

// EnginePool caches compiled spice engines across Respond calls with
// checkout semantics: acquire removes an engine from the pool, giving
// the caller exclusive use (engines are single-goroutine objects), and
// release returns it once the caller has extracted everything from the
// analysis results (a Tran aliases engine-owned storage). Concurrent
// campaign workers that miss simply build a fresh engine and check it
// in afterwards, so the pool converges to one warm engine per worker
// per key. Reuse is bit-identical to fresh construction: every analysis
// restarts Newton from the zero vector, and the only state a checkout
// mutates is the element values its rebind rewrites — to exactly the
// values a fresh build of the same checkout would stamp (the binding is
// recorded by running the same builder; see netlist.Binding).
//
// A nil *EnginePool disables pooling (every acquire misses and every
// release discards), so callers thread it unconditionally.
type EnginePool struct {
	mu      sync.Mutex
	engines map[engineKey][]*spice.Engine
	// faultUse tracks last-touch order for faulty keys (LRU bound);
	// fault-free keys are never evicted and never appear here.
	faultUse map[engineKey]int64
	seq      int64
	// binds caches the recorded fault-free base binding per nominal
	// key, for the variation it was last recorded at. Fault analyses of
	// one class run many Responds at one Variation, so the last-value
	// cache turns the per-Respond recording build into a slice copy.
	binds map[engineKey]*bindEntry
}

// bindEntry is one cached base binding: valid only for checkouts at
// exactly the variation it was recorded under.
type bindEntry struct {
	v    Variation
	bind *netlist.Binding
}

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool {
	return &EnginePool{
		engines:  map[engineKey][]*spice.Engine{},
		faultUse: map[engineKey]int64{},
		binds:    map[engineKey]*bindEntry{},
	}
}

// baseBinding returns a private copy of the recorded fault-free value
// binding for nominal key k at variation v, recording one via rec on a
// miss (first sight of the key, or the cached entry belongs to another
// variation). The returned binding is the caller's own: appending
// fault slots to it never touches the cache. A nil pool just records.
func (p *EnginePool) baseBinding(k engineKey, v Variation, rec func(*netlist.Binding)) *netlist.Binding {
	k.fault = "" // the base binding is the fault-free value set
	if p == nil {
		bind := &netlist.Binding{}
		rec(bind)
		return bind
	}
	p.mu.Lock()
	e := p.binds[k]
	p.mu.Unlock()
	if e != nil && e.v == v {
		return e.bind.Clone()
	}
	bind := &netlist.Binding{}
	rec(bind)
	p.mu.Lock()
	p.binds[k] = &bindEntry{v: v, bind: bind.Clone()}
	p.mu.Unlock()
	return bind
}

// acquire checks an engine out of the pool (nil on a miss).
func (p *EnginePool) acquire(k engineKey) *spice.Engine {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.engines[k]
	if len(s) == 0 {
		return nil
	}
	e := s[len(s)-1]
	p.engines[k] = s[:len(s)-1]
	if k.fault != "" {
		p.seq++
		p.faultUse[k] = p.seq
	}
	return e
}

// release checks an engine back in under its key, evicting the
// least-recently-used faulty key when a new faulty key would exceed the
// retention bound.
func (p *EnginePool) release(k engineKey, e *spice.Engine) {
	if p == nil || e == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if k.fault != "" {
		if _, known := p.faultUse[k]; !known && len(p.faultUse) >= maxFaultyKeys {
			var victim engineKey
			oldest := int64(0)
			for fk, at := range p.faultUse {
				if oldest == 0 || at < oldest {
					victim, oldest = fk, at
				}
			}
			delete(p.engines, victim)
			delete(p.faultUse, victim)
		}
		p.seq++
		p.faultUse[k] = p.seq
	}
	p.engines[k] = append(p.engines[k], e)
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
