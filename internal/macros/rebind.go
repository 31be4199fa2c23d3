package macros

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/spice"
)

// This file is the macro side of the compile-once/revalue-many split:
// every macro obtains its simulation engine through checkoutEngine,
// which serves a structure-keyed pooled engine revalued in place when
// it can prove the checkout matches the pooled topology, and builds
// fresh (counting the rebuild) when it cannot. The fallback ladder is:
//
//  1. pool hit + successful rebind  → CtrRebindHits (no netlist build,
//     no stamp recompile; sparse patterns survive inside the engine)
//  2. pool miss, conductance-only   → fresh build, pooled for later
//     checkouts of the same key     → CtrFullRebuilds
//  3. topology-changing fault       → fresh build, never pooled
//     (opens/new devices/absent     → CtrFullRebuilds
//     nets have no stable topology key)
//
// A failed rebind (binding does not cover the pooled circuit, unknown
// label, kind mismatch) discards the pooled engine and falls to 2 —
// a structural mismatch can never be silently served.

// engineCheckout describes how one macro obtains and revalues an
// engine for a single simulation.
type engineCheckout struct {
	// key pins the compiled topology this checkout needs.
	key engineKey
	// f and io are the fault under analysis (f nil = fault-free).
	f  *faults.Fault
	io faults.InjectOptions
	// baseBinding returns the recorded value binding of the fault-free
	// build of this checkout (fault slots are appended — and truncated
	// back — by the rebind itself). Callers may cache it across the
	// checkouts of one analysis; it is only consulted on a pool hit.
	baseBinding func() *netlist.Binding
	// build constructs the fresh testbench for the miss path.
	build func() *netlist.Builder
}

// checkoutEngine returns an engine for the checkout plus a release
// function (nil when the engine must not be pooled: no pool attached,
// or a topology-changing fault). Callers must invoke release only
// after extracting every result that aliases engine-owned storage.
func checkoutEngine(opt RespondOpts, co engineCheckout) (*spice.Engine, func(), error) {
	if opt.Pool != nil {
		if eng := opt.Pool.acquire(co.key); eng != nil {
			eng.SetMetrics(opt.Metrics)
			if err := revalueEngine(eng, co); err == nil {
				opt.Metrics.Add(obs.CtrRebindHits, 1)
				return eng, func() { opt.Pool.release(co.key, eng) }, nil
			}
			// A failed — possibly partial — rebind means this engine
			// cannot be proven to match the checkout: discard it and
			// rebuild below.
		}
	}
	b := co.build()
	poolable := opt.Pool != nil
	if co.f != nil {
		plan, err := faults.Plan(b.C, *co.f, procShared, co.io)
		if err != nil {
			return nil, nil, err
		}
		plan.Apply(b.C)
		poolable = poolable && !plan.TopologyChanged
	}
	eng := spice.New(b.C, opt.simOptions())
	opt.Metrics.Add(obs.CtrFullRebuilds, 1)
	if !poolable {
		return eng, nil, nil
	}
	return eng, func() { opt.Pool.release(co.key, eng) }, nil
}

// revalueEngine rebinds a pooled engine to the checkout's values: the
// recorded base binding plus one slot per planned fault element. The
// fault slots carry the exact values a fresh build applies — both come
// from one Plan — so a revalued engine holds bit-for-bit the element
// values of a fresh build+inject of the same checkout. Any error means
// "discard this engine".
func revalueEngine(eng *spice.Engine, co engineCheckout) error {
	bind := co.baseBinding()
	base := bind.Len()
	defer bind.Truncate(base)
	if co.f != nil {
		plan, err := faults.Plan(eng.Ckt, *co.f, procShared, co.io)
		if err != nil {
			return err
		}
		if plan.TopologyChanged {
			return fmt.Errorf("macros: topology-changing fault under pooled key %q", co.key.fault)
		}
		for _, el := range plan.Added {
			switch e := el.(type) {
			case *netlist.Resistor:
				bind.SetR(e.Label, e.R)
			case *netlist.Capacitor:
				bind.SetC(e.Label, e.C)
			default:
				return fmt.Errorf("macros: planned fault element %T is not conductance-only", el)
			}
		}
	}
	if !bind.Covers(eng.Ckt) {
		return fmt.Errorf("macros: binding does not cover pooled circuit")
	}
	return eng.Revalue(bind)
}
