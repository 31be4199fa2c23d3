// Package obs is the observability layer of the methodology pipeline:
// per-stage spans (stage name, macro, fault class, wall time) and
// hot-path counters (Newton iterations, LU solves, convergence-aid
// retries, sprinkle draws) emitted through pluggable sinks.
//
// The design is built around one constraint: the default must be free.
// A nil *Observer is the noop sink — Start returns an inert Span, End
// does nothing, no clock is read and nothing allocates — so the analog
// kernel keeps its zero-allocation steady state unless a trace or
// aggregation sink is attached. Counters are equally cheap: a nil
// *Metrics receiver turns Add into a predicted-not-taken branch, so the
// Newton loop can count unconditionally.
//
// The pipeline stages mirror Fig. 1 of the paper: sprinkle → collapse →
// inject → faultsim → classify → detect (plus the good-space compile).
// Spans are flat, independent intervals, not a strict tree: the
// comparator's classify span contains the offset-bisection transients,
// whose inject/faultsim spans are emitted too. Aggregated per-stage
// times therefore attribute where the wall clock went, they do not
// partition it.
package obs

import (
	"sync/atomic"
	"time"
)

// Stage names of the methodology pipeline, as emitted in spans.
const (
	// StageSprinkle is the Monte Carlo defect sprinkle of one macro
	// (one span per pass: "discovery" / "magnitude" in the class label).
	StageSprinkle = "sprinkle"
	// StageCollapse is fault collapsing into classes plus the
	// magnitude-pass re-weighting.
	StageCollapse = "collapse"
	// StageInject is circuit construction + fault-model injection for
	// one fault simulation.
	StageInject = "inject"
	// StageFaultSim is the analog (or gate-level) fault simulation.
	StageFaultSim = "faultsim"
	// StageClassify is the macro-level fault-signature classification
	// (for the comparator it includes the trip-point bisection).
	StageClassify = "classify"
	// StageDetect is chip-level propagation plus detection against the
	// good-signature space.
	StageDetect = "detect"
	// StageGoodSpace is the good-signature-space Monte Carlo compile
	// (the whole stage: one span per compiled DfT setting).
	StageGoodSpace = "goodspace"
	// StageGoodSpaceDie is one die of the good-space Monte Carlo (class
	// labels the die index). The stage's summed wall time is the CPU
	// cost of the Monte Carlo; the ratio against the enclosing
	// StageGoodSpace span's wall time is the die-sharding speedup.
	StageGoodSpaceDie = "goodspace_die"
	// StageRemote is one leased remote unit execution on the job
	// server's dispatch path (class labels the unit key): the span
	// covers lease grant to result/expiry, and its counters record the
	// scale-out behaviour (units_leased, remote_results, leases_expired,
	// remote_retries). The stage's wall time is remote wall time — it
	// overlaps, never partitions, the local stages.
	StageRemote = "remote"
)

// Counter indexes one hot-path counter inside a Metrics block.
type Counter int

// The hot-path counters.
const (
	// CtrNewtonIters counts Newton–Raphson iterations.
	CtrNewtonIters Counter = iota
	// CtrLUSolves counts LU factor+solve passes.
	CtrLUSolves
	// CtrGminRetries counts gmin-stepping homotopy rungs and
	// elevated-gmin transient retries.
	CtrGminRetries
	// CtrSourceRetries counts source-stepping rungs (including the
	// per-rung elevated-gmin re-attempts).
	CtrSourceRetries
	// CtrSprinkleDraws counts sprinkled defects.
	CtrSprinkleDraws
	// CtrSparseFactorHits counts LU factorisations that ran over the
	// cached symbolic sparsity pattern.
	CtrSparseFactorHits
	// CtrDenseFallbacks counts LU factorisations whose pivots left every
	// known analysis of a sparsity-aware workspace, so the learn pass
	// over the stamp pattern finished them: a workspace's first learn,
	// and pivot-cache mismatches that no recently used analysis covered
	// (learned on from the mismatching step). The name predates the
	// learn pass, which replaced a dense continuation.
	CtrDenseFallbacks
	// CtrBaselineCacheHits counts fault-free baseline responses served
	// from the memoised cache instead of re-simulating the good machine.
	CtrBaselineCacheHits
	// CtrGoodspaceDies counts completed good-space Monte Carlo dies.
	CtrGoodspaceDies
	// CtrRank1Solves counts fault operating points served by the
	// low-rank (Sherman–Morrison–Woodbury) update path against a shared
	// nominal factorization instead of a per-fault rebuild+refactor.
	CtrRank1Solves
	// CtrRank1Fallbacks counts faults that entered the low-rank path
	// but fell back to the classic rebuild: topology-changing models,
	// ill-conditioned corrections, non-convergence.
	CtrRank1Fallbacks
	// CtrClassesTruncated counts discovered fault classes dropped by
	// Config.MaxClassesPerMacro before analysis — non-zero means the
	// coverage figures describe a truncated class population.
	CtrClassesTruncated
	// CtrUnitsLeased counts campaign units leased to remote workers
	// (every grant, whether it ended in a result or an expiry).
	CtrUnitsLeased
	// CtrLeasesExpired counts leases that expired without a heartbeat —
	// a dead or partitioned worker — re-queueing the unit locally.
	CtrLeasesExpired
	// CtrRemoteResults counts units whose result came back from a
	// remote worker and was merged through the restored-unit decode
	// path.
	CtrRemoteResults
	// CtrRemoteRetries counts units that failed remotely (the worker
	// posted an error) and were handed back to the engine's bounded
	// retry, which re-runs them locally.
	CtrRemoteRetries
	// CtrRebindHits counts engine checkouts (one per analysis session,
	// not per simulation) served by a pooled fault-free engine, used as
	// it is or revalued in place to a new die Variation, instead of
	// building a fresh netlist + engine.
	CtrRebindHits
	// CtrFullRebuilds counts engine checkouts (one per analysis
	// session, not per simulation) that built a fresh circuit and
	// engine: fault-free pool misses and every faulty analysis, whose
	// engine is never pooled.
	CtrFullRebuilds
	// CtrPatternReuse counts checkouts whose Revalue retained a
	// compiled sparse symbolic analysis (the engine already held a
	// learned pattern, so the revalued solves skip the pattern probe
	// and the symbolic elimination re-derivation).
	CtrPatternReuse
	// CtrSparseRetryHits counts the CtrSparseFactorHits whose pivots
	// left the cached sequence and that stayed sparse by switching to a
	// recently used analysis mid-pass.
	CtrSparseRetryHits
	// CtrDenseLearns counts the CtrDenseFallbacks that were a
	// workspace's first learn; the rest left every known analysis at a
	// pivot-cache mismatch.
	CtrDenseLearns

	// NumCounters is the size of a Metrics block.
	NumCounters
)

// counterNames are the JSON keys of the counters, indexed by Counter.
var counterNames = [NumCounters]string{
	"newton_iters",
	"lu_solves",
	"gmin_retries",
	"source_retries",
	"sprinkle_draws",
	"sparse_factor_hits",
	"dense_fallbacks",
	"baseline_cache_hits",
	"goodspace_dies",
	"rank1_solves",
	"rank1_fallbacks",
	"classes_truncated",
	"units_leased",
	"leases_expired",
	"remote_results",
	"remote_retries",
	"rebind_hits",
	"full_rebuilds",
	"pattern_reuse_hits",
	"sparse_retry_hits",
	"dense_learns",
}

// Name returns the canonical (JSON) name of the counter.
func (c Counter) Name() string { return counterNames[c] }

// Metrics is a block of hot-path counters. The counters are atomic:
// one block may be shared by concurrent writers (the running dies of the
// good-space Monte Carlo all fold into their stage's block), so Add and
// Get are lock-free atomic operations — a handful of nanoseconds on an
// uncontended counter, which the Newton loop tolerates. A nil *Metrics
// discards every Add, so kernel code counts unconditionally.
type Metrics struct {
	n [NumCounters]int64
}

// Add accumulates n into counter c. Safe (and free) on a nil receiver;
// safe from concurrent goroutines on a shared block.
func (m *Metrics) Add(c Counter, n int64) {
	if m != nil {
		atomic.AddInt64(&m.n[c], n)
	}
}

// Get reads counter c (0 on a nil receiver).
func (m *Metrics) Get(c Counter) int64 {
	if m == nil {
		return 0
	}
	return atomic.LoadInt64(&m.n[c])
}

// Merge folds every counter of src into m (both sides nil-safe). The
// good-space workers keep a private block per die — so per-die span
// deltas attribute only that die's work — and merge it into the
// stage-level block when the die completes.
func (m *Metrics) Merge(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	for c := Counter(0); c < NumCounters; c++ {
		if n := src.Get(c); n != 0 {
			m.Add(c, n)
		}
	}
}

// snapshot reads every counter atomically (element-wise: the block is
// not frozen, each counter is individually consistent).
func (m *Metrics) snapshot() [NumCounters]int64 {
	var out [NumCounters]int64
	if m == nil {
		return out
	}
	for i := range out {
		out[i] = atomic.LoadInt64(&m.n[i])
	}
	return out
}

// Record is one finished span as delivered to sinks. Sinks must not
// retain the Record past the Emit call.
type Record struct {
	// Stage is one of the Stage* constants.
	Stage string
	// Macro and Class label the work ("" when not applicable).
	Macro, Class string
	// DfT is the design-for-test setting of the run the span belongs to.
	DfT bool
	// Start is the span's wall-clock start; Dur its duration.
	Start time.Time
	Dur   time.Duration
	// Counters holds the counter deltas accumulated during the span
	// (all zero when the span had no Metrics attached).
	Counters [NumCounters]int64
}

// Sink consumes finished spans. Emit is called concurrently from
// campaign workers; implementations synchronise internally.
type Sink interface {
	Emit(r *Record)
}

// Observer fans finished spans out to its sinks. A nil *Observer is the
// zero-cost noop: Start neither reads the clock nor allocates, and the
// returned Span's End is inert.
type Observer struct {
	sinks []Sink
}

// New builds an observer over the given sinks (nil when no sinks are
// given, so callers can pass the result around unconditionally).
func New(sinks ...Sink) *Observer {
	if len(sinks) == 0 {
		return nil
	}
	return &Observer{sinks: sinks}
}

// Start opens a span. met may be nil (no counter deltas). The returned
// Span is a value; call End exactly once.
func (o *Observer) Start(stage, macro, class string, dft bool, met *Metrics) Span {
	if o == nil {
		return Span{}
	}
	sp := Span{o: o, stage: stage, macro: macro, class: class, dft: dft, met: met, start: time.Now()}
	if met != nil {
		sp.snap = met.snapshot()
	}
	return sp
}

// Stages returns the per-stage aggregate of the first snapshotting sink
// (an *Agg, typically), or nil when none is attached.
func (o *Observer) Stages() map[string]*StageStats {
	if o == nil {
		return nil
	}
	for _, s := range o.sinks {
		if a, ok := s.(interface{ Snapshot() map[string]*StageStats }); ok {
			return a.Snapshot()
		}
	}
	return nil
}

// Span is one open stage interval. The zero Span (from a nil observer)
// is inert.
type Span struct {
	o                   *Observer
	stage, macro, class string
	dft                 bool
	met                 *Metrics
	snap                [NumCounters]int64
	start               time.Time
}

// End closes the span and delivers it to every sink.
func (sp Span) End() {
	if sp.o == nil {
		return
	}
	r := Record{
		Stage: sp.stage,
		Macro: sp.macro,
		Class: sp.class,
		DfT:   sp.dft,
		Start: sp.start,
		Dur:   time.Since(sp.start),
	}
	if sp.met != nil {
		now := sp.met.snapshot()
		for i := range r.Counters {
			r.Counters[i] = now[i] - sp.snap[i]
		}
	}
	for _, s := range sp.o.sinks {
		s.Emit(&r)
	}
}
