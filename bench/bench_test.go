package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestMain(m *testing.M) {
	flag.Parse()
	// The host-speed probe runs through testing.Benchmark; keep it short.
	if err := flag.Set("test.benchtime", "10ms"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

const specPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against the limits a benchmark
// definition must keep, and — through loadSpec — that it declares
// exactly the workloads and metrics the harness emits, both ways.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Command) == 0 || len(s.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(s.Command))
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q: too long, absolute or leaving the repository", c)
		}
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths = %q, want [bench]", s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	var setupBound, maxBound float64
	for _, m := range s.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must exist and be the largest (%v)", setupBound, maxBound)
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]metric(nil), s.EndToEnd...), s.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// TestDigestsPinned checks every workload has a digest at every pinned
// seed.
func TestDigestsPinned(t *testing.T) {
	hex := regexp.MustCompile(`^[0-9a-f]{64}$`)
	for _, w := range workloadOrder {
		for _, seed := range pinnedSeeds {
			d, ok, err := pinnedDigest(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || !hex.MatchString(d) {
				t.Errorf("%s at seed %d: pinned digest %q", w, seed, d)
			}
		}
	}
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// miniWorkloads are miniature configurations of each workload: the same
// code paths at a size the race detector runs in seconds.
func miniWorkloads() map[string]workload {
	shrink := func(config func(int64) core.Config, bits int) func(int64) core.Config {
		return func(seed int64) core.Config {
			cfg := config(seed)
			cfg.Defects, cfg.MagnitudeDefects = 400, 0
			cfg.MCSamples = 2
			cfg.MaxClassesPerMacro = 1
			cfg.SkipNonCat = true
			if bits != 0 {
				cfg.Bits = bits
			}
			return cfg
		}
	}
	return map[string]workload{
		"analog":      pipelineWorkload{config: shrink(analogConfig, 0)},
		"decoder":     pipelineWorkload{macro: "decoder", config: shrink(decoderConfig, 0)},
		"wide-ladder": pipelineWorkload{macro: "ladder", config: shrink(ladderConfig, 6)},
		"service": serviceWorkload{tenants: 2, jobsPerTenant: 1, spec: func(seed int64, i int) core.JobSpec {
			s := serviceSpec(seed, i)
			s.Defects, s.MCSamples, s.MaxClassesPerMacro, s.SkipNonCat = 5, 2, 1, true
			return s
		}},
	}
}

// TestMiniWorkloads runs each miniature workload twice — once untraced,
// once traced — and requires no failures, equal digests, and every
// per-layer metric; one workload also runs untraced for the end-to-end
// metric set. The workloads run in parallel: their timings are not
// checked, only their outputs.
func TestMiniWorkloads(t *testing.T) {
	minis := miniWorkloads()
	if err := sameSet("workloads", workloadOrder, keysOf(minis)); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if raceEnabled && name == "analog" {
				// Serial harness code around ten-fold slower comparator
				// transients: nothing for the race detector to find.
				t.Skip("analog skipped under -race")
			}
			o := options{workload: name, seed: 3, seconds: 1e-3, trace: 1, traceDir: t.TempDir()}
			res, diag, err := measure(context.Background(), o, minis[name])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || diag["ops"] != 1 || diag["traced_ops"] != 1 {
				t.Errorf("result %+v, diagnostics %v", res, diag)
			}
			if err := sameSet(name, keysOf(res.Metrics), metricNames(perLayer)); err != nil {
				t.Error(err)
			}
			if _, err := os.Stat(diag["trace_file"].(string)); err != nil {
				t.Error(err)
			}
		})
	}
	t.Run("end-to-end", func(t *testing.T) {
		t.Parallel()
		o := options{workload: "wide-ladder", seed: 3, seconds: 1e-3}
		res, _, err := measure(context.Background(), o, minis["wide-ladder"])
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSet("end_to_end", keysOf(res.Metrics), metricNames(endToEnd)); err != nil {
			t.Error(err)
		}
		for k, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s = %v, want > 0", k, v.Value)
			}
		}
	})
}

func keysOf[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func metricNames(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// TestSelfTimePartition builds a nested span tree the way a traced
// operation records it — bench spans opened by the harness, program
// spans arriving through Emit — and checks that link parents each
// program span under its innermost container and that self times
// partition the root exactly, while a group span keeps its overlapping
// insides whole.
func TestSelfTimePartition(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := newRecorder("synthetic")
	bench := func(name string, parent *span, from, to int) *span {
		s := &span{name: name, start: at(from), end: at(to), tid: 1}
		if parent != nil {
			s.parent = parent.id
		}
		r.add(s)
		return s
	}
	emit := func(stage string, from, to int) {
		r.Emit(&obs.Record{Stage: stage, Start: at(from), Dur: at(to).Sub(at(from))})
	}
	setup := bench("bench.setup", nil, 0, 40)
	gs := bench("core.goodspace", setup, 0, 40)
	emit(obs.StageGoodSpaceDie, 0, 30) // two dies in flight at once
	emit(obs.StageGoodSpaceDie, 5, 38)
	emit(obs.StageFaultSim, 6, 20)
	root := bench("bench.run", nil, 50, 150)
	an := bench("core.analyze", root, 60, 110)
	emit(obs.StageInject, 60, 70)
	emit(obs.StageClassify, 75, 105)
	emit(obs.StageFaultSim, 80, 90)
	emit(obs.StageFaultSim, 92, 100)
	emit(obs.StageDetect, 105, 108)
	bench("report.json", root, 120, 130)
	r.link()

	want := map[string]time.Duration{ // by stage: self time
		"core.analyze": 7 * time.Millisecond,  // 50 - 10 - 30 - 3
		"classify":     12 * time.Millisecond, // 30 - 10 - 8
		"bench.run":    40 * time.Millisecond, // 100 - 50 - 10
	}
	var sum time.Duration
	for _, s := range r.under(root) {
		sum += s.self
		if w, ok := want[s.name]; ok && s.self != w {
			t.Errorf("%s self = %v, want %v", s.name, s.self, w)
		}
		if s.name == obs.StageFaultSim && r.spans[s.parent-1].name != obs.StageClassify {
			t.Errorf("faultsim at %v parented under %s, want classify", s.start.Sub(t0), r.spans[s.parent-1].name)
		}
		if s.name == obs.StageInject && s.parent != an.id {
			t.Errorf("inject parented under span %d, want core.analyze (%d)", s.parent, an.id)
		}
	}
	if root.self != want["bench.run"] {
		t.Errorf("bench.run self = %v, want %v", root.self, want["bench.run"])
	}
	if sum+root.self != root.dur() {
		t.Errorf("self times under bench.run sum to %v, want %v", sum+root.self, root.dur())
	}
	if gs.self != gs.dur() {
		t.Errorf("group self = %v, want its whole %v", gs.self, gs.dur())
	}
	for _, s := range r.under(setup) {
		if s.program && s.parent != gs.id {
			t.Errorf("%s inside the good-space group parented under %d, want %d", s.name, s.parent, gs.id)
		}
	}
	l, _ := pipelineLayers(r, root, gs)
	if got := l["bench.self_time_coverage"]; math.Abs(got-0.6) > 1e-9 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
	if got := l["core.goodspace_dies_in_flight"]; math.Abs(got-63.0/40) > 1e-9 {
		t.Errorf("dies in flight = %v, want %v", got, 63.0/40)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {40, 75}, {100, 90}, {600, 98}, {1562, 99}, {20000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
