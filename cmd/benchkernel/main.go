// Command benchkernel runs the analog-kernel benchmark suite of
// internal/kernelbench outside the `go test` harness and writes a
// machine-readable snapshot, BENCH_kernel.json by default. The same cases
// are registered as BenchmarkKernel/* sub-benchmarks at the module root,
// so `go test -bench 'Kernel/'` measures the identical workloads; this
// command exists so campaign drivers and CI can archive the numbers
// without parsing bench output.
//
// Usage:
//
//	benchkernel [-o BENCH_kernel.json] [-benchtime 1s] [-v]
//	benchkernel -check BENCH_kernel.json [-benchtime 100ms]
//
// With -check the suite runs and is compared against the checked-in
// snapshot instead of writing one. It runs at the snapshot's GOMAXPROCS,
// because the pipeline cases shard their work over GOMAXPROCS and their
// allocs/op depend on it. The command fails only on a more than
// 2x ns/op regression or on an allocs/op increase beyond 0.1% (exactly
// zero for the kernel cases, whose counts are deterministic), thresholds
// loose enough that machine noise passes but a lost optimisation does
// not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/kernelbench"
)

// Result is one benchmark measurement of the snapshot.
type Result struct {
	Name     string  `json:"name"`
	N        int     `json:"n"`
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
}

// Snapshot is the BENCH_kernel.json schema.
type Snapshot struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	BenchTime  string   `json:"benchtime"`
	Results    []Result `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchkernel: ")
	testing.Init() // registers test.* flags so test.benchtime resolves
	var (
		out       = flag.String("o", "BENCH_kernel.json", "output file (\"-\" for stdout)")
		benchtime = flag.Duration("benchtime", time.Second, "minimum run time per case")
		verbose   = flag.Bool("v", false, "log each case as it completes")
		check     = flag.String("check", "", "compare against this snapshot instead of writing one")
	)
	flag.Parse()

	// testing.Benchmark honours the package-level benchtime flag.
	if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		log.Fatal(err)
	}

	var base Snapshot
	if *check != "" {
		var err error
		if base, err = loadSnapshot(*check); err != nil {
			log.Fatal(err)
		}
		host := runtime.GOMAXPROCS(0)
		if base.GOMAXPROCS > 0 {
			runtime.GOMAXPROCS(base.GOMAXPROCS)
		}
		log.Printf("checking at the snapshot's GOMAXPROCS=%d (host default %d)",
			runtime.GOMAXPROCS(0), host)
	}

	snap := Snapshot{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchTime:  benchtime.String(),
	}
	for _, c := range kernelbench.Cases() {
		r := testing.Benchmark(c.Bench)
		if r.N == 0 {
			// testing.Benchmark returns a zero result when the case
			// called b.Fatal — e.g. the rank1 case's counter assertions.
			log.Fatalf("%s: benchmark failed (see output above)", c.Name)
		}
		res := Result{
			Name:     c.Name,
			N:        r.N,
			NsPerOp:  float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
		}
		snap.Results = append(snap.Results, res)
		if *verbose {
			log.Printf("%-28s %12.0f ns/op %8d B/op %6d allocs/op",
				res.Name, res.NsPerOp, res.BytesOp, res.AllocsOp)
		}
	}

	if *check != "" {
		if err := checkAgainst(*check, base, snap.Results); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("bench guard: %d cases within bounds of %s\n", len(snap.Results), *check)
		return
	}

	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// maxNsRegression is the ns/op regression factor the guard tolerates.
// Run-to-run noise on a loaded machine stays well under 2x; a reverted
// kernel optimisation (the sparse factorisation alone is worth more than
// that on the analyzeclass case) does not.
const maxNsRegression = 2.0

// loadSnapshot reads the snapshot at path.
func loadSnapshot(path string) (Snapshot, error) {
	var snap Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("%s: %v", path, err)
	}
	return snap, nil
}

// checkAgainst compares fresh results to snap, read from path. A case
// fails on a more than maxNsRegression ns/op slowdown or on an
// allocs/op increase beyond 0.1% of the snapshot. Kernel-level
// allocation counts are deterministic per op — for them the slack
// rounds to zero and any increase is a real regression — while
// whole-pipeline cases (goodspace compiles a fresh pipeline per op,
// ~1.4M allocs) jitter a few hundred allocs between runs from scheduler
// and map-growth amortisation. Cases on only one side are reported but
// do not fail (the suite grows over time; the snapshot is regenerated
// whenever it does).
func checkAgainst(path string, snap Snapshot, fresh []Result) error {
	base := map[string]Result{}
	for _, r := range snap.Results {
		base[r.Name] = r
	}
	var failed bool
	for _, r := range fresh {
		b, ok := base[r.Name]
		if !ok {
			log.Printf("%-28s not in snapshot, skipping", r.Name)
			continue
		}
		delete(base, r.Name)
		status := "ok"
		if r.NsPerOp > b.NsPerOp*maxNsRegression {
			status = fmt.Sprintf("FAIL: ns/op regressed %.2fx (limit %gx)",
				r.NsPerOp/b.NsPerOp, maxNsRegression)
			failed = true
		}
		if r.AllocsOp > b.AllocsOp+b.AllocsOp/1000 {
			status = fmt.Sprintf("FAIL: allocs/op %d -> %d", b.AllocsOp, r.AllocsOp)
			failed = true
		}
		log.Printf("%-28s %12.0f ns/op (snap %12.0f) %6d allocs/op (snap %6d)  %s",
			r.Name, r.NsPerOp, b.NsPerOp, r.AllocsOp, b.AllocsOp, status)
	}
	for name := range base {
		log.Printf("%-28s in snapshot but not measured", name)
	}
	if failed {
		return fmt.Errorf("kernel benchmarks regressed against %s", path)
	}
	return nil
}
