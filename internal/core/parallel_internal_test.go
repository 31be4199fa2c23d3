// Internal tests for the campaign glue: the checkpoint fingerprint
// encoding and the mergeRun copy semantics, which need access to
// unexported pipeline internals (the external parallel_test.go compares
// through the report layer instead).
package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/campaign"
)

// overrideGoodSpace mirrors what the CLIs' -mc/-nsigma flags do to a
// configuration.
func overrideGoodSpace(cfg Config, mc int, nsigma float64) Config {
	cfg.MCSamples = mc
	cfg.NSigma = nsigma
	return cfg
}

// TestFingerprintGolden pins the canonical fingerprint encoding. If this
// test fails you have changed the checkpoint compatibility surface:
// either restore the encoding or bump fingerprintVersion deliberately
// (orphaning existing checkpoints) and update the strings here.
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		dft  bool
		want string
	}{
		{
			"default", DefaultConfig(), false,
			`core-campaign-v3|{"seed":1995,"bits":8,"defects":25000,"magnitude_defects":250000,"mc_samples":80,"n_sigma":3,"floor_a":0.000002,"skip_non_cat":false,"max_classes_per_macro":0,"dft":false}`,
		},
		{
			"default-dft", DefaultConfig(), true,
			`core-campaign-v3|{"seed":1995,"bits":8,"defects":25000,"magnitude_defects":250000,"mc_samples":80,"n_sigma":3,"floor_a":0.000002,"skip_non_cat":false,"max_classes_per_macro":0,"dft":true}`,
		},
		{
			"quick", QuickConfig(), false,
			`core-campaign-v3|{"seed":1995,"bits":8,"defects":4000,"magnitude_defects":0,"mc_samples":12,"n_sigma":3,"floor_a":0.000002,"skip_non_cat":false,"max_classes_per_macro":25,"dft":false}`,
		},
		{
			// The CLI -mc/-nsigma overrides flow through these two fields;
			// checkpoints taken under different good-space settings must
			// carry distinct fingerprints.
			"quick-mc-nsigma-override", overrideGoodSpace(QuickConfig(), 24, 4), false,
			`core-campaign-v3|{"seed":1995,"bits":8,"defects":4000,"magnitude_defects":0,"mc_samples":24,"n_sigma":4,"floor_a":0.000002,"skip_non_cat":false,"max_classes_per_macro":25,"dft":false}`,
		},
	}
	for _, tc := range cases {
		if got := Fingerprint(tc.cfg, tc.dft); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}

	// Every configuration field must flow into the fingerprint: two
	// configs differing in any single field must not collide.
	base := DefaultConfig()
	variants := []Config{}
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		v := base
		f := reflect.ValueOf(&v).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("Config field %s has kind %s: extend the fingerprint test",
				reflect.TypeOf(base).Field(i).Name, f.Kind())
		}
		variants = append(variants, v)
	}
	ref := Fingerprint(base, false)
	for i, v := range variants {
		if Fingerprint(v, false) == ref {
			t.Errorf("changing Config.%s does not change the fingerprint",
				reflect.TypeOf(base).Field(i).Name)
		}
	}
	if Fingerprint(base, true) == ref {
		t.Error("dft flag does not change the fingerprint")
	}
}

// TestFingerprintCoversEveryConfigField fails when a field is added to
// Config without a matching entry in fingerprintV3, which would silently
// allow checkpoints to resume across configurations that differ in the
// new field.
func TestFingerprintCoversEveryConfigField(t *testing.T) {
	cfgFields := reflect.TypeOf(Config{}).NumField()
	fpFields := reflect.TypeOf(fingerprintV3{}).NumField()
	if fpFields != cfgFields+1 { // +1: the DfT flag
		t.Fatalf("fingerprintV3 has %d fields for a Config with %d: update the encoding (and bump the version)",
			fpFields, cfgFields)
	}
}

// TestFingerprintResolvesBits pins the resolved-vehicle rule: Bits 0 and
// the explicit default must fingerprint identically (the zero value is
// the 8-bit vehicle, not a distinct campaign), while any other
// resolution must not collide with the default.
func TestFingerprintResolvesBits(t *testing.T) {
	base := DefaultConfig()
	eight := base
	eight.Bits = 8
	if Fingerprint(base, false) != Fingerprint(eight, false) {
		t.Error("Bits 0 and Bits 8 fingerprint differently: the default vehicle must resolve")
	}
	six := base
	six.Bits = 6
	if Fingerprint(six, false) == Fingerprint(base, false) {
		t.Error("a 6-bit campaign shares the 8-bit fingerprint")
	}
}

// mergeTestCfg is the smallest configuration that still produces class
// analyses on every macro.
func mergeTestCfg() Config {
	cfg := QuickConfig()
	cfg.Defects = 300
	cfg.MCSamples = 2
	cfg.MaxClassesPerMacro = 1
	cfg.SkipNonCat = true
	return cfg
}

// TestMergeRunTwice is the regression test for the mergeRun mutation
// bug: merging must not modify the *MacroRun values stored in the
// campaign Outcome (they are checkpointed state), and a second merge of
// the same Outcome must reproduce the first result exactly.
func TestMergeRunTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	cfg := mergeTestCfg()
	p := NewPipeline(cfg)
	run1, out, err := p.RunParallel(context.Background(), false, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// RunParallel already performed one merge. The discovery results in
	// the Outcome must still be pristine: no analyses attached, and not
	// aliased by the merged run.
	snapshot, err := json.Marshal(out.Results)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range p.MacroNames() {
		mr := out.Results[keyMacro+name].(*MacroRun)
		if len(mr.Cat) != 0 || len(mr.NonCat) != 0 {
			t.Fatalf("macro %s: merge attached %d cat / %d noncat analyses to the Outcome's discovery result",
				name, len(mr.Cat), len(mr.NonCat))
		}
		for _, merged := range run1.Macros {
			if merged == mr {
				t.Fatalf("macro %s: merged run aliases the Outcome's *MacroRun", name)
			}
		}
	}

	run2, err := p.mergeRun(false, p.MacroNames(), out)
	if err != nil {
		t.Fatal(err)
	}
	run3, err := p.mergeRun(false, p.MacroNames(), out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run2, run3) {
		t.Fatal("second merge of the same Outcome differs from the first")
	}
	if !reflect.DeepEqual(run1, run2) {
		t.Fatal("re-merge differs from the run RunParallel produced")
	}
	if after, err := json.Marshal(out.Results); err != nil {
		t.Fatal(err)
	} else if string(after) != string(snapshot) {
		t.Fatal("merging mutated the campaign Outcome's stored results")
	}
}
