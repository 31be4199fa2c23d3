package macros

import (
	"context"

	"repro/internal/faults"
	"repro/internal/spice"
)

// StepPair is one offset-bisection step run both ways: by decide, which
// stops at the decision read, and by measure, on the full schedule.
type StepPair struct {
	Vin                    float64
	Decision, FullDecision int
	Failed, FullFailed     bool
}

// BisectBothWays runs the offset bisections that Respond runs for fault
// f under opt and returns every step run both ways. The bisection takes
// decide's verdicts, so it visits the steps Respond visits; the
// full-schedule runs use an engine of their own. A nil f runs the
// fault-free bisection of nominalOffset. Otherwise there is one
// bisection per simulated gate-oxide variant whose extremes have the
// proper polarity; a variant that cannot be injected is skipped, as
// Respond skips it.
func (m *ComparatorMacro) BisectBothWays(ctx context.Context, f *faults.Fault, opt RespondOpts) ([]StepPair, error) {
	if f == nil {
		return m.bisectBothWays(ctx, nil, opt, 0)
	}
	gos := []faults.GOSVariant{faults.GOSToSource}
	if f.Kind == faults.GOSPinhole {
		gos = gos[:0]
		for v := faults.GOSVariant(0); v < faults.NumGOSVariants; v++ {
			gos = append(gos, v)
		}
	}
	var steps []StepPair
	for _, v := range gos {
		s, err := m.bisectBothWays(ctx, f, opt, v)
		if err != nil {
			return nil, err
		}
		steps = append(steps, s...)
	}
	return steps, nil
}

func (m *ComparatorMacro) bisectBothWays(ctx context.Context, f *faults.Fault, opt RespondOpts, gos faults.GOSVariant) ([]StepPair, error) {
	ses, full := &cmpSession{}, &cmpSession{}
	defer ses.close()
	defer full.close()
	if f != nil {
		// respondVariant bisects only between extremes of the proper
		// polarity, on the session the extremes checked out.
		lo, err := m.measure(ctx, vinLow, f, opt, gos, ses)
		if err != nil {
			if spice.IsCancelled(err) {
				return nil, err
			}
			return nil, nil
		}
		hi, err := m.measure(ctx, vinHigh, f, opt, gos, ses)
		if err != nil {
			return nil, err
		}
		if lo.failed || hi.failed || lo.decision != 0 || hi.decision != 1 {
			return nil, nil
		}
	}
	var steps []StepPair
	_, err := m.bisect(func(vin float64) (int, bool, error) {
		dec, failed, err := m.decide(ctx, vin, f, opt, gos, ses)
		if err != nil {
			return 0, false, err
		}
		run, err := m.measure(ctx, vin, f, opt, gos, full)
		if err != nil {
			return 0, false, err
		}
		steps = append(steps, StepPair{Vin: vin, Decision: dec, FullDecision: run.decision,
			Failed: failed, FullFailed: run.failed})
		return dec, failed, nil
	})
	return steps, err
}
