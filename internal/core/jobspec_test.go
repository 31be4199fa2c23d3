package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestJobSpecConfigMirrorsCLI: the spec→Config resolution must match
// the CLI flag semantics exactly — that equivalence is what makes an
// HTTP submission byte-identical to the cmd/dotest run of the same
// parameters.
func TestJobSpecConfigMirrorsCLI(t *testing.T) {
	// {"quick":true} == dotest -quick.
	if got := (JobSpec{Quick: true}).Config(); got != QuickConfig() {
		t.Fatalf("quick spec = %+v, want %+v", got, QuickConfig())
	}
	// {} == dotest with default flags.
	if got := (JobSpec{}).Config(); got != DefaultConfig() {
		t.Fatalf("empty spec = %+v, want %+v", got, DefaultConfig())
	}
	// An explicit override survives the quick preset, like
	// dotest -quick -mc 5 -nsigma 2.5.
	got := JobSpec{Quick: true, MCSamples: 5, NSigma: 2.5}.Config()
	want := QuickConfig()
	want.MCSamples = 5
	want.NSigma = 2.5
	if got != want {
		t.Fatalf("quick+overrides = %+v, want %+v", got, want)
	}
	// Seed override applies on either base.
	if got := (JobSpec{Quick: true, Seed: 7}).Config().Seed; got != 7 {
		t.Fatalf("seed = %d", got)
	}
}

// TestJobSpecDfTs: the DfT mode expands in CLI order.
func TestJobSpecDfTs(t *testing.T) {
	cases := []struct {
		mode string
		want []bool
	}{
		{"", []bool{false, true}},
		{"both", []bool{false, true}},
		{"pre", []bool{false}},
		{"post", []bool{true}},
	}
	for _, c := range cases {
		got := JobSpec{DfT: c.mode}.DfTs()
		if len(got) != len(c.want) {
			t.Fatalf("mode %q: %v", c.mode, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("mode %q: %v, want %v", c.mode, got, c.want)
			}
		}
	}
	if DfTLabel(false) != "pre" || DfTLabel(true) != "post" {
		t.Fatal("DfTLabel mapping")
	}
}

// TestJobSpecValidate: malformed specs are rejected before any work is
// scheduled.
func TestJobSpecValidate(t *testing.T) {
	if err := (JobSpec{DfT: "sideways"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "dft") {
		t.Fatalf("bad dft: %v", err)
	}
	if err := (JobSpec{Defects: -1}).Validate(); err == nil {
		t.Fatal("negative field accepted")
	}
	if err := (JobSpec{Quick: true, DfT: "pre", Workers: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (JobSpec{Bits: 3}).Validate(); err == nil {
		t.Fatal("out-of-range vehicle resolution accepted")
	}
	if err := (JobSpec{Bits: 6}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJobSpecFingerprint: the job fingerprint keys the dedup — it must
// separate result-changing fields, ignore scheduling hints, and stay
// stable for identical specs.
func TestJobSpecFingerprint(t *testing.T) {
	base := JobSpec{Quick: true, DfT: "pre"}
	if base.Fingerprint() != (JobSpec{Quick: true, DfT: "pre"}).Fingerprint() {
		t.Fatal("identical specs fingerprint differently")
	}
	// Workers is a hint: any worker count is bit-identical, so it must
	// not split the dedup key.
	withWorkers := base
	withWorkers.Workers = 7
	if base.Fingerprint() != withWorkers.Fingerprint() {
		t.Fatal("Workers leaked into the fingerprint")
	}
	// Result-changing fields must split it.
	for name, other := range map[string]JobSpec{
		"seed":  {Quick: true, DfT: "pre", Seed: 7},
		"dft":   {Quick: true, DfT: "both"},
		"mc":    {Quick: true, DfT: "pre", MCSamples: 5},
		"quick": {DfT: "pre"},
		"bits":  {Quick: true, DfT: "pre", Bits: 6},
	} {
		if other.Fingerprint() == base.Fingerprint() {
			t.Fatalf("%s change did not change the fingerprint", name)
		}
	}
	// The id is a stable function of the fingerprint: equal for equal
	// fingerprints (the dedup handle), distinct otherwise.
	if JobID(base.Fingerprint()) != JobID(withWorkers.Fingerprint()) {
		t.Fatal("equal fingerprints produced different job ids")
	}
	if JobID(base.Fingerprint()) == JobID((JobSpec{DfT: "pre"}).Fingerprint()) {
		t.Fatal("different fingerprints produced the same job id")
	}
	// The vehicle resolution is fingerprinted resolved: an explicit
	// default-bits submission dedups onto the unset-bits job, while any
	// other vehicle never does.
	withDefaultBits := base
	withDefaultBits.Bits = 8
	if base.Fingerprint() != withDefaultBits.Fingerprint() {
		t.Fatal("explicit default bits split the dedup key")
	}
}

// FuzzJobSpec: decoding an arbitrary JSON body into a JobSpec and
// validating it never panics, and a spec that validates keeps its
// Fingerprint across a marshal/unmarshal round trip — the job server's
// dedup key must not depend on how the spec travelled. The seed corpus
// runs in plain go test.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{}`, `{"quick":true}`, `{"quick":true,"dft":"pre","seed":7,"max_classes_per_macro":2,"mc_samples":4}`,
		`{"bits":6,"defects":400,"magnitude_defects":1000,"n_sigma":2.5,"floor_a":1e-9,"skip_non_cat":true}`,
		`{"dft":"sideways"}`, `{"seed":-1}`, `{"bits":3}`, `{"bits":64}`, `{"workers":4}`,
		`{"n_sigma":1e308,"floor_a":5e-324}`, `{"seed":9223372036854775807}`, `[1]`, `null`, `{"quick":"yes"}`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s JobSpec
		if json.Unmarshal(body, &s) != nil || s.Validate() != nil {
			return
		}
		want := s.Fingerprint()
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal valid spec %+v: %v", s, err)
		}
		var back JobSpec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if got := back.Fingerprint(); got != want {
			t.Fatalf("fingerprint changed over a round trip of %s:\n%s\n%s", raw, want, got)
		}
	})
}
