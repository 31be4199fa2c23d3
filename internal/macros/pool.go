package macros

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/faults"
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
// nominal tap voltages under one variation, the comparator's full
// fault-free response (the gate-oxide-short worst-case reference), and
// the comparator's design offset (single-flighted: concurrent first
// callers join one bisection instead of each running their own).
// Entries are stored only from completed, error-free simulations and
// only for f == nil runs — a faulty analysis can neither read nor write
// the cache, so a fault never sees (or poisons) a fault-free baseline.
// Cached values are shared read-only across callers; all consumers only
// read them, and because the simulations are deterministic, a cache hit
// returns bit-for-bit the vector a recompute would.
//
// A nil *Baselines disables memoisation.
type Baselines struct {
	mu       sync.Mutex
	ladder   map[Variation][]float64
	ladderNF map[Variation]*spice.NominalFactor
	cmpNom   map[cmpNomKey]*signature.Response
	offsets  map[offsetKey]*offsetCall
}

// offsetKey identifies one comparator design offset: the bisection runs
// on the nominal die, so only the reference tap and the DfT flag vary.
type offsetKey struct {
	vref float64
	dft  bool
}

// offsetCall is one design-offset bisection: done closes once off/err
// are set.
type offsetCall struct {
	done chan struct{}
	off  float64
	err  error
}

// NewBaselines returns an empty baseline cache.
func NewBaselines() *Baselines {
	return &Baselines{
		ladder:   map[Variation][]float64{},
		ladderNF: map[Variation]*spice.NominalFactor{},
		cmpNom:   map[cmpNomKey]*signature.Response{},
		offsets:  map[offsetKey]*offsetCall{},
	}
}

// ladderTaps returns the cached nominal tap voltages for one variation.
func (b *Baselines) ladderTaps(v Variation) ([]float64, bool) {
	if b == nil {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	taps, ok := b.ladder[v]
	return taps, ok
}

// storeLadderTaps records the nominal tap voltages for one variation.
// First store wins (concurrent computes produce identical vectors).
func (b *Baselines) storeLadderTaps(v Variation, taps []float64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.ladder[v]; !ok {
		b.ladder[v] = taps
	}
}

// ladderFactor returns the cached shared nominal factorization of the
// ladder under one variation. Like the tap cache, entries are immutable
// once stored: a NominalFactor is read-only after construction (solves
// against it never mutate it), so concurrent class analyses share one
// safely.
func (b *Baselines) ladderFactor(v Variation) (*spice.NominalFactor, bool) {
	if b == nil {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	nf, ok := b.ladderNF[v]
	return nf, ok
}

// storeLadderFactor records the nominal factorization for one variation.
// First store wins (racing constructions factor the same deterministic
// system, so whichever lands is equivalent).
func (b *Baselines) storeLadderFactor(v Variation, nf *spice.NominalFactor) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.ladderNF[v]; !ok {
		b.ladderNF[v] = nf
	}
}

// comparatorNominal returns the cached fault-free comparator response.
func (b *Baselines) comparatorNominal(k cmpNomKey) (*signature.Response, bool) {
	if b == nil {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.cmpNom[k]
	return r, ok
}

// storeComparatorNominal records a fault-free comparator response.
func (b *Baselines) storeComparatorNominal(k cmpNomKey, r *signature.Response) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.cmpNom[k]; !ok {
		b.cmpNom[k] = r
	}
}

// comparatorOffset returns the design offset for k, running compute on a
// miss. Concurrent callers of one key share a single compute; a failed
// (cancelled) compute is not cached, and a waiter whose own context is
// still live retries it. A nil *Baselines just computes.
func (b *Baselines) comparatorOffset(ctx context.Context, k offsetKey, compute func() (float64, error)) (float64, error) {
	if b == nil {
		return compute()
	}
	for {
		b.mu.Lock()
		c, ok := b.offsets[k]
		if !ok {
			c = &offsetCall{done: make(chan struct{})}
			b.offsets[k] = c
			b.mu.Unlock()
			c.off, c.err = compute()
			if c.err != nil {
				b.mu.Lock()
				delete(b.offsets, k)
				b.mu.Unlock()
			}
			close(c.done)
			return c.off, c.err
		}
		b.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		if c.err == nil || !spice.IsCancelled(c.err) || ctx.Err() != nil {
			return c.off, c.err
		}
	}
}
