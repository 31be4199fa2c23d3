package macros

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestFaultyRespondPoolIsolation is the pool-isolation contract of the
// structure-keyed pool: a conductance-only faulty run pools its engine
// under the fault's own key — never under (or out of) the fault-free
// key — so fault-free responses after a faulty run stay bit-identical;
// a topology-changing fault (an open splits nodes) has no stable
// topology key and must leave the pool entirely untouched.
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
	warm := pool.size()
	if warm == 0 {
		t.Fatal("fault-free run did not populate the pool")
	}

	// Conductance-only: a bridge between existing nets. Its engine pools
	// under the fault key, and the repeat run is served by rebind.
	f := &faults.Fault{Kind: faults.Short, Nets: []string{"o1", "vss"}, Res: 0.2}
	faulty, err := m.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fresh, faulty) {
		t.Fatal("hard short produced the fault-free response; fault was not injected")
	}
	hits := met.Get(obs.CtrRebindHits)
	faulty2, err := m.Respond(ctx, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if met.Get(obs.CtrRebindHits) <= hits {
		t.Fatal("repeated conductance-only fault was not served by rebind")
	}
	if !reflect.DeepEqual(faulty, faulty2) {
		t.Fatalf("rebind-served faulty response diverged:\nwant %+v\ngot  %+v", faulty, faulty2)
	}

	after, err := m.Respond(ctx, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, after) {
		t.Fatalf("fault-free response after a faulty run diverged:\nwant %+v\ngot  %+v", fresh, after)
	}

	// Topology-changing: an open on m1's drain. Never pooled.
	rebuilds := met.Get(obs.CtrFullRebuilds)
	size := pool.size()
	open := &faults.Fault{Kind: faults.Open, Nets: []string{"o1"},
		FarTerminals: []faults.Terminal{{Device: "m1", Net: "o1"}}}
	if _, err := m.Respond(ctx, open, opt); err != nil {
		t.Fatal(err)
	}
	if got := pool.size(); got != size {
		t.Fatalf("topology-changing fault changed the pool: size %d -> %d", size, got)
	}
	if met.Get(obs.CtrFullRebuilds) <= rebuilds {
		t.Fatal("topology-changing fault did not count a full rebuild")
	}
	if _, err := m.Respond(ctx, open, opt); err != nil {
		t.Fatal(err)
	}
	if got := pool.size(); got != size {
		t.Fatalf("repeated topology-changing fault changed the pool: size %d -> %d", size, got)
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

// TestComparatorOffsetSingleFlight: concurrent first callers of one
// design-offset key share a single computation, and a cancelled
// computation is not cached — the next caller recomputes.
func TestComparatorOffsetSingleFlight(t *testing.T) {
	base := NewBaselines()
	ctx := context.Background()
	k := offsetKey{vref: 1.5}
	var calls atomic.Int32
	compute := func() (float64, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		return 0.25, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if off, err := base.comparatorOffset(ctx, k, compute); err != nil || off != 0.25 {
				t.Errorf("offset = %g, %v", off, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d computations for one key, want 1", n)
	}

	other := offsetKey{vref: 1.5, dft: true}
	if _, err := base.comparatorOffset(ctx, other, func() (float64, error) {
		return 0, context.Canceled
	}); !spice.IsCancelled(err) {
		t.Fatalf("cancelled compute: err = %v", err)
	}
	if off, err := base.comparatorOffset(ctx, other, compute); err != nil || off != 0.25 || calls.Load() != 2 {
		t.Fatalf("retry after cancellation: offset %g, err %v, %d computations", off, err, calls.Load())
	}
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
	got, err := NewBiasgen(DefaultVehicle()).cmp.nominalOffset(ctx, false, pool, base)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || len(base.offsets) != 1 {
		t.Fatalf("biasgen offset %g vs comparator %g over %d cached keys, want one shared entry",
			got, want, len(base.offsets))
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
