// Command bench is the end-to-end benchmark of the defect-oriented test
// pipeline: it times whole campaigns — sprinkle → collapse → inject →
// fault-simulate → classify → detect — through the program's public entry
// points, checks their output bytes, and in a traced run breaks the time
// down by layer. See README.md for the workloads and metrics.
//
//	bash bench/run.sh                       # every workload at the pinned seeds
//	bash bench/run.sh --workload analog --seed 3 --seconds 25 --trace 0
//
// With -workload the named workload runs in this process and the last
// line of standard output is the result object; without it every
// workload runs in a child process of its own and each prints one line.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// workloadOrder lists the workloads; each exercises layers the others
// bypass (README.md gives the reasons in full).
var workloadOrder = []string{"analog", "decoder", "wide-ladder", "service"}

var workloads = map[string]workload{
	// The analog transients: comparator and biasgen classes dominate.
	"analog": pipelineWorkload{config: analogConfig},
	// Gate-level fault simulation of the thermometer decoder.
	"decoder": pipelineWorkload{macro: "decoder", config: decoderConfig},
	// The rank-1 and full-rebuild ladder paths on a large working set.
	"wide-ladder": pipelineWorkload{macro: "ladder", config: ladderConfig},
	// The job server, the campaign engine and checkpoint resume.
	"service": serviceWorkload{tenants: 2, jobsPerTenant: 3, spec: serviceSpec},
}

// analogConfig is the quick campaign's 12-die good space with the
// default 25 k/250 k sprinkles and the top 6 classes per macro. The
// large magnitude sprinkle ranks the classes by a stable magnitude, so
// the analysed classes — and with them the analog work — hardly change
// with the seed; the quick configuration's 4 000-defect ranking changes
// most of them.
func analogConfig(seed int64) core.Config {
	cfg := core.QuickConfig()
	cfg.Seed = seed
	cfg.Defects, cfg.MagnitudeDefects = 25000, 250000
	cfg.MaxClassesPerMacro = 6
	return cfg
}

// decoderConfig is the full-fidelity configuration (80 dies, 25 k/250 k
// defects) on the decoder alone. Capping the classes fixes the analysis
// count, which the decoder's long class tail would otherwise vary by
// ±10 % across seeds.
func decoderConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.MaxClassesPerMacro = 150
	return cfg
}

// ladderConfig is a 9-bit vehicle (513 taps) with every class of a
// 1 M-defect sprinkle and the quick 12-die good space. The ladder's
// topology-changing classes are rare and each costs a full rebuild; a
// sprinkle this large finds about 300 of them at every seed, ±2 %, where
// a 10-bit ladder with 250 k defects found 125 ± 10 % and its allocation
// swung by ±20 % from seed to seed.
func ladderConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Bits = 9
	cfg.Defects, cfg.MagnitudeDefects = 1000000, 1000000
	cfg.MCSamples = 12
	return cfg
}

// serviceSpec is job i of the service workload: a quick pre-DfT campaign
// with 4 dies and 2 classes per macro. Job seeds never repeat across
// workload seeds, and are never 0 (which a job spec reads as "default").
func serviceSpec(seed int64, i int) core.JobSpec {
	return core.JobSpec{Quick: true, DfT: "pre", Seed: seed*64 + int64(i) + 1,
		MaxClassesPerMacro: 2, MCSamples: 4}
}

// pinnedSeeds are the seeds digests.json pins, run by default when no
// -seed is given without -workload.
var pinnedSeeds = []int64{1995, 7}

type options struct {
	workload string
	seed     int64
	seedSet  bool
	seconds  float64
	trace    int
	traceDir string
}

// specFile is the benchmark definition, relative to the repository root
// the harness runs from.
const specFile = "BENCHMARK.json"

func main() {
	// testing.Benchmark (the host-speed probe) reads the test.* flags.
	testing.Init()
	if err := flag.Set("test.benchtime", "100ms"); err != nil {
		panic(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// run parses the flags and runs one workload or all of them, returning
// the exit status: 0 when every output was correct, 1 when one was not
// or a run failed, 2 for bad usage.
func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: each workload in a child process)")
	fs.Int64Var(&o.seed, "seed", pinnedSeeds[0], "workload seed; every input is derived from it (without -workload and -seed: every pinned seed)")
	fs.Float64Var(&o.seconds, "seconds", 1, "keep starting operations until this many seconds have passed (at least one)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced operations too and reports the per-layer metrics")
	fs.StringVar(&o.traceDir, "tracedir", filepath.Join(".bench_build", "trace"), "directory for the Chrome trace-event files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fs.Visit(func(f *flag.Flag) { o.seedSet = o.seedSet || f.Name == "seed" })
	if fs.NArg() > 0 || o.seed < 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want -seed >= 0, -seconds > 0, -trace 0 or 1, and no arguments")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.workload == "" {
		return runAll(ctx, o, spec, stdout)
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", o.workload, workloadOrder)
		return 2
	}
	res, diag, err := measure(ctx, o, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(diag); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure runs operations of w until o.seconds have passed and reduces
// them to the result line and a diagnostics line. In a traced run every
// second operation is traced.
func measure(ctx context.Context, o options, w workload) (*result, map[string]any, error) {
	probeBefore, err := probeNs()
	if err != nil {
		return nil, nil, err
	}
	res := &result{Correct: true, Metrics: map[string]value{}}
	diag := map[string]any{"workload": o.workload, "seed": o.seed, "trace": o.trace}
	var plain, traced []*opResult
	var recs []*recorder
	var opErr error
	minOps := 1 + o.trace
	ref := newHostRef()
	refs := []float64{ref.ns()}
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < o.seconds; i++ {
		env := opEnv{tmp: os.TempDir()}
		if o.trace == 1 && i%2 == 1 {
			env.rec = newRecorder(fmt.Sprintf("%s/seed%d/op%d", o.workload, o.seed, i))
		}
		r, err := w.op(ctx, o.seed, env)
		if err != nil {
			opErr = err
			res.Attempted++
			res.Failed++
			break
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		refs = append(refs, ref.ns())
		if env.rec != nil {
			traced = append(traced, r)
			recs = append(recs, env.rec)
		} else {
			plain = append(plain, r)
		}
	}
	probeAfter, err := probeNs()
	if err != nil {
		return nil, nil, err
	}
	diag["probe_ns"] = []float64{probeBefore, probeAfter}
	opRuns := make([]float64, len(plain))
	for i, r := range plain {
		opRuns[i] = r.run
	}
	diag["op_run_s"] = opRuns
	diag["ref_ns"] = refs
	// host is the run's host factor: how much slower than refNominalNs
	// the reference kernel ran, square-rooted. Time metrics are divided
	// by it. The mean, not the median, of the readings: single readings
	// fall into the host's fast or slow state, and repetitions run
	// through the mix of both. The square root because on the measured
	// host the workloads slowed by about the square root of what the
	// all-arithmetic kernel did (README.md, "Host scaling").
	host := math.Sqrt(mean(refs) / refNominalNs)
	diag["host_factor"] = host
	diag["ops"] = len(plain)
	diag["traced_ops"] = len(traced)
	if opErr != nil {
		diag["error"] = opErr.Error()
	}

	// Every operation of a run computes the same output; the first one
	// is the run's digest, checked against the pinned one when there is.
	all := append(append([]*opResult(nil), plain...), traced...)
	digest := ""
	for _, r := range all {
		if digest == "" {
			digest = r.digest
		}
		if r.digest != digest {
			res.Failed += r.attempted
			diag["nondeterministic"] = true
		}
	}
	diag["digest"] = digest
	pin, pinned, err := pinnedDigest(o.workload, o.seed)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case !pinned:
		diag["pinned"] = "none"
	case pin == digest:
		diag["pinned"] = "match"
	default:
		diag["pinned"] = "mismatch: want " + pin
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0 && opErr == nil && len(all) > 0

	if o.trace == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		var jobs []float64
		for _, r := range plain {
			for _, j := range r.jobs {
				if j > 0 {
					jobs = append(jobs, j)
				}
			}
		}
		vals := map[string]float64{
			"setup_s":     medianOf(plain, func(r *opResult) float64 { return r.setup }) / host,
			"run_s":       medianOf(plain, func(r *opResult) float64 { return r.run }) / host,
			"cpu_s":       medianOf(plain, func(r *opResult) float64 { return r.cpu }) / host,
			"alloc_mb":    medianOf(plain, func(r *opResult) float64 { return r.allocMB }),
			"peak_rss_mb": rss,
			"job_p50_s":   median(jobs) / host,
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = value{vals[m.Name], m.Unit}
		}
		diag["job_n"] = len(jobs)
		return res, diag, nil
	}

	for _, m := range perLayer {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = r.layers[m.Name]
		}
		res.Metrics[m.Name] = value{median(xs), m.Unit}
	}
	run := func(r *opResult) float64 { return r.run }
	if base := medianOf(plain, run); base > 0 {
		res.Metrics["bench.trace_overhead_pct"] = value{100 * (medianOf(traced, run) - base) / base, "%"}
	}
	if len(traced) > 0 {
		for k, v := range traced[0].notes {
			diag[k] = v
		}
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, nil, err
		}
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
		if err := writeTrace(path, recs); err != nil {
			return nil, nil, err
		}
		diag["trace_file"] = path
	}
	return res, diag, nil
}

// medianOf is the median of one per-operation figure over a run's
// repetitions of the same work.
func medianOf(ops []*opResult, f func(*opResult) float64) float64 {
	xs := make([]float64, len(ops))
	for i, r := range ops {
		xs[i] = f(r)
	}
	return median(xs)
}

// runAll runs every workload in a child process of its own — so one
// workload's heap, caches and peak RSS never leak into another's — and
// prints one merged line per workload and seed.
func runAll(ctx context.Context, o options, spec *benchSpec, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	seeds := pinnedSeeds
	if o.seedSet {
		seeds = []int64{o.seed}
	}
	status := 0
	for _, seed := range seeds {
		for _, w := range spec.Workloads {
			cmd := exec.CommandContext(ctx, exe,
				"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(o.trace), "-tracedir", o.traceDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			line, merr := mergeLines(out)
			if merr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s at seed %d: %v\n", w.Name, seed, errors.Join(err, merr))
				status = 1
				continue
			}
			fmt.Fprintf(stdout, "%s\n", line)
			if err != nil {
				status = 1
			}
		}
	}
	return status
}

// mergeLines joins a child's diagnostics line and result line into one
// JSON object.
func mergeLines(out []byte) ([]byte, error) {
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("want a diagnostics and a result line, got %q", out)
	}
	merged := map[string]json.RawMessage{}
	for _, l := range lines[len(lines)-2:] {
		if err := json.Unmarshal(l, &merged); err != nil {
			return nil, err
		}
	}
	return json.Marshal(merged)
}
