// Command dotest runs the defect-oriented test methodology over the Flash
// ADC case study and prints the paper's tables and figures.
//
// Usage:
//
//	dotest [-quick] [-bits N] [-defects N] [-mag N] [-mc N] [-nsigma X]
//	       [-seed S] [-maxclasses N] [-macro name|all] [-dft pre|post|both]
//	       [-workers N] [-gsworkers N] [-checkpoint file] [-resume]
//	       [-json file] [-json-stats file] [-trace file.jsonl] [-v]
//
// With no flags it reproduces every experiment at full fidelity (several
// minutes of CPU). -bits selects the vehicle: the N-bit member of the
// flash-converter family (2^N comparators and ladder segments; default 8,
// the paper's case study).
//
// The configuration flags resolve through core.JobSpec, exactly as a job
// submitted to cmd/campaignd does: -quick selects the small preset, and
// every configuration flag given a non-zero value overrides its preset
// value. A flag left at 0 keeps the preset, so a full-fidelity -mag 0
// means the 250 000-defect magnitude sprinkle; -mag 1 (any value up to
// -defects) reuses the discovery sprinkle instead.
//
// -workers 1 (the default) runs in-process through Pipeline.Run, which
// fans out by itself. -workers other than 1, or -checkpoint, runs the
// whole-vehicle methodology on the parallel campaign engine instead:
// per-macro sprinkles and per-class fault simulations execute as units
// on a work-stealing pool, with checkpoint/resume and run metrics
// (including the per-stage time breakdown) printed after each DfT
// setting. -json-stats writes those metrics, -v logs unit completions.
// The post-DfT run appends ".dft" to the -checkpoint, -json and
// -json-stats file names. With a single -macro, -json summarises that
// macro alone.
//
// -gsworkers sets Pipeline.Workers, the bound on the pipeline's own
// fan-out: Run's per-macro discoveries, the per-class analyses (of Run,
// or of RunMacro under -macro), and the good-space Monte Carlo's dies
// (0 picks GOMAXPROCS, or the campaign worker count on the engine; 1
// runs strictly serially). Every combination of -workers and
// -gsworkers is bit-identical.
//
// -trace streams one JSON object per finished methodology-stage span
// (sprinkle, collapse, inject, faultsim, classify, detect, goodspace)
// to the given file; see the README's "Tracing" section for the schema.
//
// A SIGINT or SIGTERM cancels the run: the cancellation reaches into
// the Newton and transient loops, so even a long analog solve aborts in
// bounded time. A checkpointed run flushes its checkpoint first, and
// the process exits with status 130; a second signal force-quits:
//
//	dotest -checkpoint run.ckpt            # interrupt it mid-run …
//	dotest -checkpoint run.ckpt -resume    # … and pick up where it left off
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// options is the parsed command line: the job spec that resolves the
// pipeline configuration, plus how to run and report it.
type options struct {
	spec       core.JobSpec
	macro      string
	workers    int
	gsworkers  int
	checkpoint string
	resume     bool
	jsonOut    string
	jsonStats  string
	trace      string
	verbose    bool
}

// engine reports whether the run goes through the campaign engine.
func (o *options) engine() bool {
	return o.macro == "all" && (o.workers != 1 || o.checkpoint != "")
}

// parseFlags defines the command's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	s := &o.spec
	fs.BoolVar(&s.Quick, "quick", false, "small, fast preset: 4000 defects, no magnitude sprinkle, 12 dies, 25 classes per macro")
	fs.IntVar(&s.Bits, "bits", 0, "vehicle resolution in bits, 2^N comparators (0 = 8, the paper's case study)")
	fs.IntVar(&s.Defects, "defects", 0, "class-discovery sprinkle size per macro (0 = preset: 25000)")
	fs.IntVar(&s.MagnitudeDefects, "mag", 0, "magnitude sprinkle size (0 = preset: 250000; a value up to -defects reuses the discovery sprinkle)")
	fs.IntVar(&s.MCSamples, "mc", 0, "good-space Monte Carlo dies (0 = preset: 80)")
	fs.Float64Var(&s.NSigma, "nsigma", 0, "current-detection threshold multiple (0 = 3)")
	fs.Int64Var(&s.Seed, "seed", 0, "random seed (0 = 1995)")
	fs.IntVar(&s.MaxClassesPerMacro, "maxclasses", 0, "cap analysed classes per macro (0 = preset: all)")
	fs.StringVar(&s.DfT, "dft", "both", "DfT setting: pre, post or both")
	fs.StringVar(&o.macro, "macro", "all", "macro to analyse (comparator|ladder|biasgen|clockgen|decoder|all)")
	fs.IntVar(&o.workers, "workers", 1, "campaign engine workers (1 = in-process Pipeline.Run, 0 = GOMAXPROCS)")
	fs.IntVar(&o.gsworkers, "gsworkers", 0, "pipeline fan-out bound for the class analyses and the good-space dies (0 = automatic, 1 = strictly serial; any setting is bit-identical)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "run on the campaign engine, checkpointing to this file")
	fs.BoolVar(&o.resume, "resume", false, "resume from the checkpoint, skipping finished units")
	fs.StringVar(&o.jsonOut, "json", "", "also write a machine-readable summary to this file")
	fs.StringVar(&o.jsonStats, "json-stats", "", "write the campaign engine's run metrics to this file")
	fs.StringVar(&o.trace, "trace", "", "write a JSONL span trace of every methodology stage to this file")
	fs.BoolVar(&o.verbose, "v", false, "log campaign engine unit completions")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if o.checkpoint != "" && o.macro != "all" {
		return nil, errors.New("-checkpoint runs the whole vehicle; it cannot be combined with a single -macro")
	}
	if !o.engine() && (o.resume || o.jsonStats != "" || o.verbose) {
		return nil, errors.New("-resume, -json-stats and -v need the campaign engine (-workers other than 1, or -checkpoint)")
	}
	return o, nil
}

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
	log.SetPrefix("dotest: ")

	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	p := core.NewPipeline(o.spec.Config())
	p.Workers = o.gsworkers

	// Fail fast on a bad -macro before compiling the good space or
	// sprinkling a single defect.
	if o.macro != "all" {
		if err := p.ValidateMacro(o.macro); err != nil {
			log.Fatal(err)
		}
	}

	var jw *obs.JSONLWriter
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		jw = obs.NewJSONLWriter(f)
	}

	ctx, stop := interruptContext(context.Background())
	defer stop()

	start := time.Now()
	for _, dft := range o.spec.DfTs() {
		label, suffix := "before DfT", ""
		if dft {
			label, suffix = "after DfT", ".dft"
		}
		fmt.Printf("==== Defect-oriented test path (%s) ====\n\n", label)
		// One stage aggregator per DfT setting, so the engine's
		// per-stage breakdown covers exactly this run; the JSONL trace
		// spans both settings, each record carrying its dft flag.
		var sinks []obs.Sink
		if o.engine() {
			sinks = append(sinks, obs.NewAgg())
		}
		if jw != nil {
			sinks = append(sinks, jw)
		}
		p.Obs = obs.New(sinks...)

		if o.macro != "all" {
			run, err := p.RunMacro(ctx, o.macro, dft)
			if err != nil {
				fatal(ctx, err, "")
			}
			printMacro(run)
			if o.jsonOut != "" {
				one := &core.Run{Cfg: p.Cfg, DfT: dft, Macros: []*core.MacroRun{run}}
				writeJSON(o.jsonOut+suffix, func() ([]byte, error) { return report.JSON(one) })
			}
			continue
		}
		var run *core.Run
		var out *campaign.Outcome
		opts := o.campaignOptions(suffix)
		if o.engine() {
			run, out, err = p.RunParallel(ctx, dft, opts)
			if err != nil && out != nil {
				out.Stats.Print(os.Stderr)
			}
		} else {
			run, err = p.Run(ctx, dft)
		}
		if err != nil {
			fatal(ctx, err, opts.Checkpoint)
		}
		printMacro(run.Macro("comparator"))
		report.PerMacro(os.Stdout, run)
		title := "Fig 4: global detectability"
		if dft {
			title = "Fig 5: global detectability after DfT"
		}
		report.Global(os.Stdout, title, run)
		if out != nil {
			out.Stats.Print(os.Stdout)
			fmt.Println()
		}
		if o.jsonOut != "" {
			writeJSON(o.jsonOut+suffix, func() ([]byte, error) { return report.JSON(run) })
		}
		if o.jsonStats != "" {
			writeJSON(o.jsonStats+suffix, out.Stats.JSON)
		}
	}
	fmt.Printf("total runtime: %s\n", time.Since(start).Round(time.Millisecond))
	if jw != nil {
		if err := jw.Err(); err != nil {
			log.Fatalf("trace write: %v", err)
		}
		fmt.Printf("wrote trace %s\n", o.trace)
	}
}

// campaignOptions configures the campaign engine for one DfT setting.
func (o *options) campaignOptions(suffix string) campaign.Options {
	opts := campaign.Options{Workers: o.workers, Resume: o.resume}
	if o.checkpoint != "" {
		opts.Checkpoint = o.checkpoint + suffix
	}
	if o.verbose {
		opts.OnUnitDone = func(key string, restored bool) {
			if restored {
				log.Printf("restored %s", key)
			} else {
				log.Printf("done %s", key)
			}
		}
	}
	return opts
}

// fatal reports a run error, distinguishing a user-driven cancellation
// (exit 130, the conventional SIGINT status) from a pipeline failure.
// The cancellation branch also covers the race where every unit
// finished but the signal arrived before the merge: the partial
// outcome is never reported as a completed run. checkpoint names the
// checkpoint an interrupted run flushed, if any.
func fatal(ctx context.Context, err error, checkpoint string) {
	if ctx.Err() != nil {
		if checkpoint != "" {
			log.Printf("interrupted; checkpoint flushed to %s — rerun with -resume", checkpoint)
		}
		log.Printf("cancelled: %v", err)
		os.Exit(130)
	}
	log.Fatal(err)
}

// writeJSON writes the marshalled document to name and reports it.
func writeJSON(name string, marshal func() ([]byte, error)) {
	data, err := marshal()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(name, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", name)
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
