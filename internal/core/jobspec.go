// Job-scoped campaign entry: a JobSpec is the wire form of one campaign
// submission to the job server (or any other embedder), and the one
// configuration resolver of the methodology: cmd/dotest fills a JobSpec
// from its flags and runs spec.Config(). A POSTed {"quick":true}
// therefore resolves to the same Config as `dotest -quick`, an explicit
// field overrides the quick preset exactly as the matching flag does,
// and an HTTP submission is byte-identical to the CLI run of the same
// spec.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/macros"
)

// JobSpec parameterises one campaign job. The zero value of each field
// means "unset, use the default"; Workers is a scheduling hint and is
// deliberately excluded from the fingerprint — any worker count
// produces bit-identical results.
type JobSpec struct {
	// Quick selects the small QuickConfig preset; explicit fields below
	// override individual preset values.
	Quick bool `json:"quick,omitempty"`
	// Seed drives every Monte Carlo stage (0 = the default 1995).
	Seed int64 `json:"seed,omitempty"`
	// Bits selects the vehicle resolution (0 = the default 8-bit
	// vehicle). Part of the fingerprint — resolved, so 0 and 8 dedup
	// into the same job while any other resolution never does.
	Bits int `json:"bits,omitempty"`
	// Defects is the class-discovery sprinkle size per macro.
	Defects int `json:"defects,omitempty"`
	// MagnitudeDefects is the magnitude-pass sprinkle size.
	MagnitudeDefects int `json:"magnitude_defects,omitempty"`
	// MCSamples is the number of good-space Monte Carlo dies.
	MCSamples int `json:"mc_samples,omitempty"`
	// NSigma is the current-detection threshold multiple.
	NSigma float64 `json:"n_sigma,omitempty"`
	// FloorA is the tester current-measurement floor (A).
	FloorA float64 `json:"floor_a,omitempty"`
	// SkipNonCat disables the non-catastrophic analysis.
	SkipNonCat bool `json:"skip_non_cat,omitempty"`
	// MaxClassesPerMacro caps the per-macro class analyses (0 = all).
	MaxClassesPerMacro int `json:"max_classes_per_macro,omitempty"`
	// DfT selects the design-for-test settings to run: "pre", "post" or
	// "both" ("" = "both", like the CLIs).
	DfT string `json:"dft,omitempty"`
	// Workers is the per-job worker hint (0 = the server's budget). Not
	// part of the fingerprint: parallelism never changes results.
	Workers int `json:"workers,omitempty"`
}

// Validate rejects specs that no CLI invocation could express.
func (s JobSpec) Validate() error {
	switch s.DfT {
	case "", "pre", "post", "both":
	default:
		return fmt.Errorf("core: bad dft %q (want pre, post or both)", s.DfT)
	}
	if s.Seed < 0 || s.Defects < 0 || s.MagnitudeDefects < 0 || s.MCSamples < 0 ||
		s.NSigma < 0 || s.FloorA < 0 || s.MaxClassesPerMacro < 0 || s.Workers < 0 {
		return fmt.Errorf("core: job spec fields must be non-negative")
	}
	if s.Bits != 0 {
		if _, err := macros.NewVehicle(s.Bits); err != nil {
			return err
		}
	}
	return nil
}

// Config resolves the spec to the pipeline configuration, mirroring the
// CLI: the quick preset (or the full-fidelity default) first, then the
// explicitly set fields on top.
func (s JobSpec) Config() Config {
	var cfg Config
	if s.Quick {
		cfg = QuickConfig()
	} else {
		cfg = DefaultConfig()
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.Bits > 0 {
		cfg.Bits = s.Bits
	}
	if s.Defects > 0 {
		cfg.Defects = s.Defects
	}
	if s.MagnitudeDefects > 0 {
		cfg.MagnitudeDefects = s.MagnitudeDefects
	}
	if s.MCSamples > 0 {
		cfg.MCSamples = s.MCSamples
	}
	if s.NSigma > 0 {
		cfg.NSigma = s.NSigma
	}
	if s.FloorA > 0 {
		cfg.FloorA = s.FloorA
	}
	if s.MaxClassesPerMacro > 0 {
		cfg.MaxClassesPerMacro = s.MaxClassesPerMacro
	}
	if s.SkipNonCat {
		cfg.SkipNonCat = true
	}
	return cfg
}

// DfTs lists the design-for-test settings the job runs, in CLI order.
func (s JobSpec) DfTs() []bool {
	switch s.DfT {
	case "pre":
		return []bool{false}
	case "post":
		return []bool{true}
	}
	return []bool{false, true}
}

// DfTLabel names one DfT setting in job results and progress events.
func DfTLabel(dft bool) string {
	if dft {
		return "post"
	}
	return "pre"
}

// jobFingerprintVersion versions the job-level fingerprint encoding.
const jobFingerprintVersion = "job-v1"

// Fingerprint identifies the job's complete configuration: the resolved
// Config plus which DfT settings run. Two specs with the same
// fingerprint produce byte-identical results, so the job server dedups
// concurrent identical submissions into a single run on this key. The
// per-DfT checkpoint fingerprints remain Fingerprint(cfg, dft) — a job
// is one checkpoint per DfT setting.
func (s JobSpec) Fingerprint() string {
	mode := s.DfT
	if mode == "" {
		mode = "both"
	}
	return jobFingerprintVersion + "|" + mode + "|" + Fingerprint(s.Config(), false)
}

// JobID derives the stable job identifier from a job fingerprint.
// Deriving it by hash (rather than a counter) is what makes concurrent
// duplicate submissions collapse: every tenant computing the id of the
// same spec gets the same handle.
func JobID(fingerprint string) string {
	sum := sha256.Sum256([]byte(fingerprint))
	return "j" + hex.EncodeToString(sum[:8])
}
