package macros

import (
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/spice"
)

// This file is the macro side of the compile-once/revalue-many split:
// every macro obtains the simulation engine of one analysis session
// through checkoutEngine, once, and drives all of the session's stimuli
// through it. The fallback ladder is:
//
//  1. fault-free, pool hit          → CtrRebindHits (no stamp
//     recompile; when the pooled engine is bound to another Variation,
//     the testbench is built once more and its values are copied in)
//  2. fault-free, pool miss         → fresh build, pooled on release
//     → CtrFullRebuilds
//  3. faulty                        → fresh build + injection, lives
//     only as long as its session, → CtrFullRebuilds
//     whose end recycles its matrix
//
// A failed revalue (the fresh build differs from the pooled circuit in
// a count, a kind, a label, a terminal or a MOSFET's geometry) discards
// the pooled engine and falls to 2 — a structural mismatch can never be
// silently served.

// engineCheckout describes how one macro obtains the engine of one
// analysis session.
//
// Skipping the revalue of a pooled engine already bound to the
// checkout's Variation is exact only because every element value that
// is not a function of (key, Variation) — the comparator's input source
// vvin and the clock generator's phase sources vphi1..3 — is retuned by
// the session before each analysis.
type engineCheckout struct {
	// key pins the compiled fault-free topology this checkout needs.
	key engineKey
	// f and io are the fault under analysis (f nil = fault-free).
	f  *faults.Fault
	io faults.InjectOptions
	// into constructs the fault-free testbench at the checkout's
	// Variation into a fresh builder. Its circuit becomes a new engine,
	// or the source of the values a pooled engine is revalued from.
	into func(*netlist.Builder)
}

// checkoutEngine returns the session's engine plus its release, which
// checks a fault-free engine back into the pool and, when the engine
// must not be pooled (a faulty engine, or no pool attached), ends it
// and recycles its matrix (spice.Engine.Release). Callers must invoke
// release exactly once, and only after extracting every result that
// aliases engine-owned storage.
func checkoutEngine(opt RespondOpts, co engineCheckout) (*spice.Engine, func(), error) {
	var eng *spice.Engine
	if co.f == nil {
		if pe, ok := opt.Pool.acquire(co.key); ok {
			pe.eng.SetMetrics(opt.Metrics)
			// A failed — possibly partial — revalue means this engine
			// cannot be proven to match the checkout: discard it and
			// rebuild below.
			if err := revalueEngine(pe, opt.Var, co.into); err == nil {
				eng = pe.eng
				opt.Metrics.Add(obs.CtrRebindHits, 1)
			}
		}
	}
	if eng == nil {
		b := netlist.NewBuilder()
		co.into(b)
		if co.f != nil {
			if err := faults.Inject(b.C, *co.f, procShared, co.io); err != nil {
				return nil, nil, err
			}
		}
		eng = spice.New(b.C, opt.simOptions())
		opt.Metrics.Add(obs.CtrFullRebuilds, 1)
	}
	if co.f != nil || opt.Pool == nil {
		return eng, eng.Release, nil
	}
	return eng, func() { opt.Pool.release(co.key, pooledEngine{eng: eng, v: opt.Var}) }, nil
}

// revalueEngine binds a pooled fault-free engine to Variation v: a
// no-op when it is already bound to v, else a Revalue from a fresh
// build by into. Any error means "discard this engine".
func revalueEngine(pe pooledEngine, v Variation, into func(*netlist.Builder)) error {
	if pe.v == v {
		return nil
	}
	b := netlist.NewBuilder()
	into(b)
	return pe.eng.Revalue(b.C)
}
