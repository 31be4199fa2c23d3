// Command campaign runs the defect-oriented test methodology as a
// parallel fault-simulation campaign: per-macro defect sprinkles and
// per-fault-class analog fault simulations execute as independent units
// on a work-stealing worker pool, with checkpoint/resume and run
// metrics. Output is bit-identical to the serial cmd/dotest run at the
// same seed, for any worker count.
//
// Usage:
//
//	campaign [-bits N] [-workers N] [-gsworkers N] [-checkpoint file]
//	         [-resume] [-json-stats file] [-defects N] [-mag N] [-mc N]
//	         [-nsigma X] [-seed S] [-dft pre|post|both] [-maxclasses N]
//	         [-quick] [-json file] [-trace file.jsonl] [-v]
//
// -bits selects the vehicle: the N-bit member of the flash-converter
// family (default 8, the paper's case study). The resolution is part of
// the checkpoint fingerprint, so campaigns of different vehicles never
// share a checkpoint.
//
// The good-space Monte Carlo is die-sharded and overlapped with the
// campaign's sprinkle front half; -gsworkers sets Pipeline.Workers, the
// bound on the pipeline's own fan-out, which here is that die group
// (0 inherits the campaign worker count). -mc and -nsigma override the
// good-space sampling and detection threshold — they flow into the
// checkpoint fingerprint, so checkpoints taken under different
// good-space settings refuse to merge — and survive -quick when given
// explicitly.
//
// A cancelled run (SIGINT or SIGTERM) flushes its checkpoint before
// exiting — the cancellation reaches into the Newton/transient loops,
// so even a unit stuck in a hard analog solve aborts in bounded time —
// and exits with status 130, distinct from unit failures:
//
//	campaign -checkpoint run.ckpt            # interrupt it mid-run …
//	campaign -checkpoint run.ckpt -resume    # … and pick up where it left off
//
// Run metrics always include the per-stage time breakdown (sprinkle,
// collapse, inject, faultsim, classify, detect, goodspace); -trace
// additionally streams every stage span as JSONL (see the README's
// "Tracing" section for the schema).
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

// interruptContext returns a context cancelled by the first SIGINT or
// SIGTERM — a service manager's stop signal gets the same graceful
// shutdown as a Ctrl-C. The first signal is consumed by
// signal.NotifyContext to begin a graceful shutdown (workers drain, the
// checkpoint flushes inside campaign.Execute before it returns); the
// moment cancellation starts, the default signal handler is restored so
// a second signal can force-quit a wedged run instead of being
// swallowed.
func interruptContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")

	var (
		bits       = flag.Int("bits", macros.DefaultBits, "vehicle resolution in bits (2^N comparators)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		checkpoint = flag.String("checkpoint", "", "JSON checkpoint file (\"\" disables)")
		resume     = flag.Bool("resume", false, "resume from the checkpoint, skipping finished units")
		jsonStats  = flag.String("json-stats", "", "write the run-metrics snapshot to this file")
		defects    = flag.Int("defects", 25000, "class-discovery sprinkle size per macro")
		mag        = flag.Int("mag", 250000, "magnitude sprinkle size (0 = reuse discovery)")
		mc         = flag.Int("mc", 80, "good-space Monte Carlo dies")
		nsigma     = flag.Float64("nsigma", 3, "current-detection threshold multiple")
		gsworkers  = flag.Int("gsworkers", 0, "pipeline fan-out bound, here the good-space dies (0 = inherit -workers; any setting is bit-identical)")
		seed       = flag.Int64("seed", 1995, "random seed")
		dftMode    = flag.String("dft", "both", "DfT setting: pre, post or both")
		maxClasses = flag.Int("maxclasses", 0, "cap analysed classes per macro (0 = all)")
		quick      = flag.Bool("quick", false, "small, fast configuration")
		jsonOut    = flag.String("json", "", "also write a machine-readable summary to this file")
		trace      = flag.String("trace", "", "write a JSONL span trace of every methodology stage to this file")
		verbose    = flag.Bool("v", false, "log unit completions")
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

	ctx, stop := interruptContext(context.Background())
	defer stop()

	var jw *obs.JSONLWriter
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		jw = obs.NewJSONLWriter(f)
	}

	start := time.Now()
	for _, dft := range dfts {
		label, suffix := "before DfT", ""
		if dft {
			label, suffix = "after DfT", ".dft"
		}
		opts := campaign.Options{
			Workers: *workers,
			Resume:  *resume,
		}
		if *checkpoint != "" {
			opts.Checkpoint = *checkpoint + suffix
		}
		if *verbose {
			opts.OnUnitDone = func(key string, restored bool) {
				if restored {
					log.Printf("restored %s", key)
				} else {
					log.Printf("done %s", key)
				}
			}
		}

		fmt.Printf("==== Parallel campaign (%s) ====\n\n", label)
		// One pipeline and one stage aggregator per DfT setting, so the
		// per-stage breakdown in the run metrics covers exactly this
		// campaign; the JSONL trace (if any) spans both settings, with
		// each record carrying its dft flag.
		p := core.NewPipeline(cfg)
		p.Workers = *gsworkers
		sinks := []obs.Sink{obs.NewAgg()}
		if jw != nil {
			sinks = append(sinks, jw)
		}
		p.Obs = obs.New(sinks...)
		run, out, err := p.RunParallel(ctx, dft, opts)
		if err != nil {
			if out != nil {
				out.Stats.Print(os.Stderr)
			}
			// A cancelled context is the user's doing, not a unit
			// failure: report it distinctly and exit with the
			// conventional SIGINT status. This branch also covers the
			// race where every unit finished but the cancellation
			// arrived before the merge — the partial Outcome is never
			// reported as a completed run.
			if ctx.Err() != nil {
				if *checkpoint != "" {
					log.Printf("interrupted; checkpoint flushed to %s — rerun with -resume", *checkpoint+suffix)
				}
				log.Printf("cancelled: %v", err)
				os.Exit(130)
			}
			log.Fatal(err)
		}

		report.PerMacro(os.Stdout, run)
		title := "Fig 4: global detectability"
		if dft {
			title = "Fig 5: global detectability after DfT"
		}
		report.Global(os.Stdout, title, run)
		out.Stats.Print(os.Stdout)
		fmt.Println()

		if *jsonOut != "" {
			data, err := report.JSON(run)
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*jsonOut+suffix, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *jsonOut+suffix)
		}
		if *jsonStats != "" {
			data, err := out.Stats.JSON()
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*jsonStats+suffix, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *jsonStats+suffix)
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
