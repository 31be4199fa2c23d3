package macros_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/macros"
)

// raceEnabled is set by race_test.go under -race, where the full set of
// classes would take minutes.
var raceEnabled bool

// TestBisectionDecideMatchesFullSchedule checks the offset bisection's
// rule that a step's verdict is its first-latch decision: every step of
// a quick-scale run's bisections, run up to the decision read only,
// must reach the decision and the failure that the full two-cycle
// schedule reaches. The classes are the quick configuration's analysis
// targets on the comparator testbench (the comparator's and the bias
// generator's), pre- and post-DfT, plus the fault-free bisection of the
// design offset. -short, and -race, check the first few classes that
// bisect in each DfT setting.
func TestBisectionDecideMatchesFullSchedule(t *testing.T) {
	few := testing.Short() || raceEnabled
	cfg := core.QuickConfig()
	p := core.NewPipeline(cfg)
	m := macros.NewComparator(cfg.Vehicle())
	pool := macros.NewEnginePool()
	ctx := context.Background()
	for _, dft := range []bool{false, true} {
		check := func(label string, f *faults.Fault, nonCat bool) int {
			t.Helper()
			steps, err := m.BisectBothWays(ctx, f, macros.RespondOpts{
				Var: macros.Nominal(), DfT: dft, NonCat: nonCat, Pool: pool,
			})
			if err != nil {
				t.Fatalf("dft=%v %s: %v", dft, label, err)
			}
			for _, s := range steps {
				if s.Decision != s.FullDecision || s.Failed != s.FullFailed {
					t.Errorf("dft=%v %s at vin=%.6f: stopped run decision=%d failed=%v, full schedule decision=%d failed=%v",
						dft, label, s.Vin, s.Decision, s.Failed, s.FullDecision, s.FullFailed)
				}
			}
			return len(steps)
		}
		if check("fault-free", nil, false) == 0 {
			t.Fatalf("dft=%v: the fault-free bisection took no steps", dft)
		}
		bisected, total := 0, 0
		for _, name := range []string{"comparator", "biasgen"} {
			run, err := p.DiscoverClasses(ctx, name, dft)
			if err != nil {
				t.Fatal(err)
			}
			classes := run.Classes
			if len(classes) > cfg.MaxClassesPerMacro {
				classes = classes[:cfg.MaxClassesPerMacro]
			}
			for i := range classes {
				if few && bisected >= 2 {
					break
				}
				f := &classes[i].Fault
				nonCats := []bool{false}
				if !cfg.SkipNonCat && f.NonCatEligible() {
					nonCats = append(nonCats, true)
				}
				for _, nonCat := range nonCats {
					label := name + " " + f.Key()
					if nonCat {
						label += ":noncat"
					}
					if n := check(label, f, nonCat); n > 0 {
						bisected++
						total += n
					}
				}
			}
		}
		if bisected == 0 {
			t.Fatalf("dft=%v: no class analysis bisected", dft)
		}
		t.Logf("dft=%v: %d steps in %d bisecting analyses agree", dft, total, bisected)
	}
}
