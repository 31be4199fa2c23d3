package macros

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/signature"
	"repro/internal/spice"
)

// TestPooledRespondBitIdentical pins the engine-pool reuse contract: a
// fault-free comparator response served from a warm pooled engine must be
// bit-for-bit the response a fresh engine produces.
func TestPooledRespondBitIdentical(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	ctx := context.Background()
	fresh, err := m.Respond(ctx, nil, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}

	pool := NewEnginePool()
	opt := RespondOpts{Var: Nominal(), CurrentsOnly: true, Pool: pool}
	first, err := m.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pool.size() == 0 {
		t.Fatal("fault-free run did not check its engine into the pool")
	}
	// The second call checks the warm engine out and retunes it.
	second, err := m.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, first) || !reflect.DeepEqual(fresh, second) {
		t.Fatalf("pooled responses diverge from fresh:\nfresh  %+v\nfirst  %+v\nsecond %+v",
			fresh, first, second)
	}
}

// TestFaultyRespondPoolIsolation is the session contract of the pool:
// a faulty analysis builds its own engine once, keeps it for all of its
// runs and never checks it in — whether the fault only adds a
// conductance or changes the topology (an open splits nodes) — so
// fault-free responses after a faulty one stay bit-identical.
func TestFaultyRespondPoolIsolation(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	ctx := context.Background()
	pool := NewEnginePool()
	met := &obs.Metrics{}
	opt := RespondOpts{Var: Nominal(), CurrentsOnly: true, Pool: pool, Metrics: met}

	fresh, err := m.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pool.size() == 0 {
		t.Fatal("fault-free run did not populate the pool")
	}

	// respond runs one faulty analysis, which must leave the pool as it
	// found it and build exactly one engine for both of its runs.
	respond := func(f *faults.Fault) *signature.Response {
		t.Helper()
		size, rebuilds := pool.size(), met.Get(obs.CtrFullRebuilds)
		r, err := m.Respond(ctx, f, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := pool.size(); got != size {
			t.Fatalf("fault %v changed the pool: size %d -> %d", f, size, got)
		}
		if got := met.Get(obs.CtrFullRebuilds) - rebuilds; got != 1 {
			t.Fatalf("fault %v: %d full rebuilds, want 1 per analysis", f, got)
		}
		return r
	}

	// Conductance-only: a bridge between existing nets.
	short := &faults.Fault{Kind: faults.Short, Nets: []string{"o1", "vss"}, Res: 0.2}
	// Topology-changing: an open on m1's drain.
	open := &faults.Fault{Kind: faults.Open, Nets: []string{"o1"},
		FarTerminals: []faults.Terminal{{Device: "m1", Net: "o1"}}}
	for _, f := range []*faults.Fault{short, open} {
		first := respond(f)
		if reflect.DeepEqual(fresh, first) {
			t.Fatalf("fault %v produced the fault-free response; fault was not injected", f)
		}
		if again := respond(f); !reflect.DeepEqual(first, again) {
			t.Fatalf("repeated fault %v diverged:\nwant %+v\ngot  %+v", f, first, again)
		}
	}

	after, err := m.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, after) {
		t.Fatalf("fault-free response after faulty runs diverged:\nwant %+v\ngot  %+v", fresh, after)
	}
}

// respCloseTo reports whether two ladder responses carry the same
// classification and numerically agree to within rel (relative, with a
// small absolute floor) on the analog measurements. The low-rank update
// path reproduces the classic solve within the Newton convergence
// contract rather than bit-for-bit, so responses straddling the two
// paths are compared at solver accuracy.
func respCloseTo(a, b *signature.Response, rel float64) bool {
	if a.Voltage != b.Voltage || a.MissingCode != b.MissingCode ||
		a.CommonMode != b.CommonMode || a.StuckVal != b.StuckVal ||
		len(a.Currents) != len(b.Currents) {
		return false
	}
	close := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-12+rel*math.Max(math.Abs(x), math.Abs(y))
	}
	if !close(a.OffsetV, b.OffsetV) {
		return false
	}
	for k, v := range a.Currents {
		w, ok := b.Currents[k]
		if !ok || !close(v, w) {
			return false
		}
	}
	return true
}

// TestLadderBaselineCacheBitIdentical pins the baseline-memo contract on
// the ladder: a class analysis served a cached nominal tap vector must
// produce a deterministic response agreeing with a cache-free recompute
// (bitwise fault-free; within the solver contract for faulty runs,
// which a cache-armed analysis routes through the low-rank update
// path), the hit must be counted, and faulty results must never poison
// the fault-free cache.
func TestLadderBaselineCacheBitIdentical(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	ctx := context.Background()
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"t096", "t128"}, Res: 25}

	want, err := l.Respond(ctx, f, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}

	met := &obs.Metrics{}
	base := NewBaselines()
	opt := RespondOpts{Var: Nominal(), Base: base, Metrics: met}
	first, err := l.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n != 0 {
		t.Fatalf("first analysis hit a cold cache (%d hits)", n)
	}
	second, err := l.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n != 1 {
		t.Fatalf("second analysis: %d baseline hits, want 1", n)
	}
	// A bridge between existing taps is rank-1-updatable: both analyses
	// must have taken the shared-factorization path, never falling back.
	if n := met.Get(obs.CtrRank1Solves); n != 2 {
		t.Fatalf("rank1_solves = %d, want 2", n)
	}
	if n := met.Get(obs.CtrRank1Fallbacks); n != 0 {
		t.Fatalf("rank1_fallbacks = %d, want 0", n)
	}
	// Cache-armed analyses are deterministic among themselves and agree
	// with the classic path at solver accuracy.
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeated cached analyses diverge:\nfirst  %+v\nsecond %+v", first, second)
	}
	if !respCloseTo(want, first, 1e-9) {
		t.Fatalf("low-rank response disagrees with classic path beyond solver accuracy:\nwant  %+v\ngot   %+v",
			want, first)
	}

	// A different die must not see this variation's baseline.
	other := Nominal()
	other.RhoScale = 1.01
	if _, err := l.Respond(ctx, f, RespondOpts{Var: other, Base: base, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n != 1 {
		t.Fatalf("variation change reused a stale baseline (%d hits)", n)
	}

	// The fault-free ladder itself, analysed through the same cache, must
	// match a cache-free run — the faulty analyses cannot have stored
	// their taps.
	wantFree, err := l.Respond(ctx, nil, RespondOpts{Var: Nominal()})
	if err != nil {
		t.Fatal(err)
	}
	gotFree, err := l.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantFree, gotFree) {
		t.Fatalf("fault-free response through a used cache diverged:\nwant %+v\ngot  %+v", wantFree, gotFree)
	}
}

// TestNominalFactorConcurrentPlan: a fresh shared nominal factorization
// must be safe to plan faults against from many goroutines at once.
// Planning an open looks its far-terminal element up by name, which on a
// cold circuit would lazily build the element index — a concurrent map
// write that -race (or the runtime itself) flags unless the factor
// materialised the index before it was shared.
func TestNominalFactorConcurrentPlan(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	opt := RespondOpts{Var: Nominal()}
	nf, err := spice.NewNominalFactor(l.buildLadderCircuit(opt.Var).C, opt.simOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := 10 + 20*g
			f := faults.Fault{Kind: faults.Open, Nets: []string{tapName(k)},
				FarTerminals: []faults.Terminal{{Device: fmt.Sprintf("r%03d", k), Net: tapName(k)}}}
			plan, err := faults.Plan(nf.Ckt(), f, procShared, faults.InjectOptions{})
			if err != nil || !plan.TopologyChanged {
				t.Errorf("goroutine %d: plan = %+v, %v; want a topology change", g, plan, err)
			}
		}(g)
	}
	wg.Wait()
}

// TestComparatorOffsetSharedAcrossMacros: the pipeline's comparator and
// the bias generator's private comparator bisect the same design offset,
// so through one baseline cache the second lookup is a hit.
func TestComparatorOffsetSharedAcrossMacros(t *testing.T) {
	ctx := context.Background()
	base, pool := NewBaselines(), NewEnginePool()
	want, err := NewComparator(DefaultVehicle()).nominalOffset(ctx, false, pool, base)
	if err != nil {
		t.Fatal(err)
	}
	got, hit, err := base.offsets.Do(ctx, offsetKey{vref: NewBiasgen(DefaultVehicle()).cmp.VRef}, func() (float64, error) {
		t.Fatal("the bias generator's offset key missed the comparator's entry")
		return 0, nil
	})
	if err != nil || !hit || got != want {
		t.Fatalf("biasgen offset %g (hit %v, %v) vs comparator %g, want one shared entry", got, hit, err, want)
	}
}

// TestComparatorGOSBaselineCache exercises the comparator's memoised
// fault-free reference on the gate-oxide-short worst-case ranking: the
// second pinhole analysis must hit the cache and return the identical
// worst-case signature.
func TestComparatorGOSBaselineCache(t *testing.T) {
	m := NewComparator(DefaultVehicle())
	ctx := context.Background()
	f := &faults.Fault{Kind: faults.GOSPinhole, Device: "m1"}

	want, err := m.Respond(ctx, f, RespondOpts{Var: Nominal(), CurrentsOnly: true})
	if err != nil {
		t.Fatal(err)
	}

	met := &obs.Metrics{}
	opt := RespondOpts{Var: Nominal(), CurrentsOnly: true,
		Base: NewBaselines(), Pool: NewEnginePool(), Metrics: met}
	first, err := m.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := met.Get(obs.CtrBaselineCacheHits); n < 1 {
		t.Fatalf("second pinhole analysis recomputed the nominal reference (%d hits)", n)
	}
	if !reflect.DeepEqual(want, first) || !reflect.DeepEqual(want, second) {
		t.Fatalf("cached-reference responses diverge:\nwant   %+v\nfirst  %+v\nsecond %+v",
			want, first, second)
	}
}

// spanCounters sums the counter deltas of every finished span.
type spanCounters struct {
	mu  sync.Mutex
	sum [obs.NumCounters]int64
}

func (s *spanCounters) Emit(r *obs.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, v := range r.Counters {
		s.sum[i] += v
	}
}

// TestLadderRank1CountersInsideSpans: the rank-1 solve of a tap bridge
// and the fallback of a topology-changing open must both be counted
// inside a span, so a trace sink sees exactly what the metrics block
// holds.
func TestLadderRank1CountersInsideSpans(t *testing.T) {
	l := NewLadder(DefaultVehicle())
	ctx := context.Background()
	sink := &spanCounters{}
	met := &obs.Metrics{}
	opt := RespondOpts{Var: Nominal(), Base: NewBaselines(), Metrics: met, Obs: obs.New(sink)}
	bridge := &faults.Fault{Kind: faults.Short, Nets: []string{tapName(96), tapName(128)}, Res: 25}
	open := &faults.Fault{
		Kind: faults.Open, Nets: []string{tapName(50)},
		FarTerminals: []faults.Terminal{{Device: "r050", Net: tapName(50)}},
	}
	for _, f := range []*faults.Fault{bridge, open} {
		if _, err := l.Respond(ctx, f, opt); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []obs.Counter{obs.CtrRank1Solves, obs.CtrRank1Fallbacks} {
		if got, want := sink.sum[c], met.Get(c); got != want || want != 1 {
			t.Errorf("%s: spans saw %d, metrics hold %d, want 1 each", c.Name(), got, want)
		}
	}
}
