// Command dotest runs the defect-oriented test methodology over the Flash
// ADC case study and prints the paper's tables and figures.
//
// Usage:
//
//	dotest [-bits N] [-defects N] [-mag N] [-mc N] [-seed S]
//	       [-macro name|all] [-dft pre|post|both] [-maxclasses N]
//	       [-nsigma X] [-quick] [-workers N] [-gsworkers N]
//	       [-trace file.jsonl]
//
// With no flags it reproduces every experiment at full fidelity (several
// minutes of CPU). -bits selects the vehicle: the N-bit member of the
// flash-converter family (2^N comparators and ladder segments; default 8,
// the paper's case study). -workers > 1 runs the per-macro sprinkles and
// per-class fault simulations on the parallel campaign engine; -workers 1
// runs them in-process through Pipeline.Run, which is no longer serial
// by itself. For checkpoint/resume and run metrics use cmd/campaign.
//
// -gsworkers sets Pipeline.Workers, the bound on the pipeline's own
// fan-out: Run's per-macro discoveries and per-class analyses, and the
// good-space Monte Carlo's dies (0 picks GOMAXPROCS, or the campaign
// worker count under -workers > 1; 1 runs strictly serially). Every
// combination of -workers and -gsworkers is bit-identical. -mc and
// -nsigma override the good-space sampling and detection threshold, and
// survive -quick when given explicitly.
//
// -trace streams one JSON object per finished methodology-stage span
// (sprinkle, collapse, inject, faultsim, classify, detect, goodspace)
// to the given file; see the README's "Tracing" section for the schema.
// A SIGINT or SIGTERM cancels the run: the cancellation reaches into
// the Newton and transient loops, so even a long analog solve aborts in
// bounded time.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dotest: ")

	var (
		bits       = flag.Int("bits", macros.DefaultBits, "vehicle resolution in bits (2^N comparators)")
		defects    = flag.Int("defects", 25000, "class-discovery sprinkle size per macro")
		mag        = flag.Int("mag", 250000, "magnitude sprinkle size (0 = reuse discovery)")
		mc         = flag.Int("mc", 80, "good-space Monte Carlo dies")
		seed       = flag.Int64("seed", 1995, "random seed")
		macroName  = flag.String("macro", "all", "macro to analyse (comparator|ladder|biasgen|clockgen|decoder|all)")
		dftMode    = flag.String("dft", "both", "DfT setting: pre, post or both")
		maxClasses = flag.Int("maxclasses", 0, "cap analysed classes per macro (0 = all)")
		nsigma     = flag.Float64("nsigma", 3, "current-detection threshold multiple")
		quick      = flag.Bool("quick", false, "small, fast configuration")
		jsonOut    = flag.String("json", "", "also write a machine-readable summary to this file")
		workers    = flag.Int("workers", 1, "parallel campaign workers (1 = in-process Pipeline.Run, 0 = GOMAXPROCS)")
		gsworkers  = flag.Int("gsworkers", 0, "pipeline fan-out bound for Run's classes and the good-space dies (0 = automatic, 1 = strictly serial; any setting is bit-identical)")
		trace      = flag.String("trace", "", "write a JSONL span trace of every methodology stage to this file")
	)
	flag.Parse()

	cfg := core.Config{
		Seed:               *seed,
		Defects:            *defects,
		MagnitudeDefects:   *mag,
		MCSamples:          *mc,
		NSigma:             *nsigma,
		FloorA:             2e-6,
		MaxClassesPerMacro: *maxClasses,
	}
	if *quick {
		cfg = core.QuickConfig()
		cfg.Seed = *seed
		// -quick replaces the whole configuration, but an explicit
		// good-space override must not be silently dropped: re-apply
		// the flags the user actually set.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mc":
				cfg.MCSamples = *mc
			case "nsigma":
				cfg.NSigma = *nsigma
			}
		})
	}
	if _, err := macros.NewVehicle(*bits); err != nil {
		log.Fatal(err)
	}
	cfg.Bits = *bits
	p := core.NewPipeline(cfg)
	p.Workers = *gsworkers

	// Fail fast on a bad -macro before compiling the good space or
	// sprinkling a single defect.
	if *macroName != "all" {
		if err := p.ValidateMacro(*macroName); err != nil {
			log.Fatal(err)
		}
	}

	var jw *obs.JSONLWriter
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		jw = obs.NewJSONLWriter(f)
		p.Obs = obs.New(jw)
	}

	var dfts []bool
	switch *dftMode {
	case "pre":
		dfts = []bool{false}
	case "post":
		dfts = []bool{true}
	case "both":
		dfts = []bool{false, true}
	default:
		log.Fatalf("bad -dft %q", *dftMode)
	}

	// A SIGINT or SIGTERM cancels the context; the cancellation
	// propagates into the analog kernel's Newton/transient loops, so the
	// run aborts in bounded time even mid-solve.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	for _, dft := range dfts {
		label := "before DfT"
		if dft {
			label = "after DfT"
		}
		fmt.Printf("==== Defect-oriented test path (%s) ====\n\n", label)
		if *macroName != "all" {
			run, err := p.RunMacro(ctx, *macroName, dft)
			if err != nil {
				fatal(ctx, err)
			}
			printMacro(run)
			continue
		}
		var run *core.Run
		var err error
		if *workers == 1 {
			run, err = p.Run(ctx, dft)
		} else {
			run, _, err = p.RunParallel(ctx, dft,
				campaign.Options{Workers: *workers})
		}
		if err != nil {
			fatal(ctx, err)
		}
		cmp := run.Macro("comparator")
		printMacro(cmp)
		report.PerMacro(os.Stdout, run)
		title := "Fig 4: global detectability"
		if dft {
			title = "Fig 5: global detectability after DfT"
		}
		report.Global(os.Stdout, title, run)
		if *jsonOut != "" {
			name := *jsonOut
			if dft {
				name += ".dft"
			}
			data, err := report.JSON(run)
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(name, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", name)
		}
	}
	fmt.Printf("total runtime: %s\n", time.Since(start).Round(time.Millisecond))
	if jw != nil {
		if err := jw.Err(); err != nil {
			log.Fatalf("trace write: %v", err)
		}
		fmt.Printf("wrote trace %s\n", *trace)
	}
}

// fatal reports a run error, distinguishing a user-driven cancellation
// (exit 130, the conventional SIGINT status) from a pipeline failure.
func fatal(ctx context.Context, err error) {
	if ctx.Err() != nil {
		log.Printf("cancelled: %v", err)
		os.Exit(130)
	}
	log.Fatal(err)
}

func printMacro(run *core.MacroRun) {
	report.Table1(os.Stdout, run)
	report.Table2(os.Stdout, run)
	report.Table3(os.Stdout, run)
	report.Fig3(os.Stdout, run, false)
	if len(run.NonCat) > 0 {
		report.Fig3(os.Stdout, run, true)
	}
}
