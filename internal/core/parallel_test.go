// External test package: these tests compare the campaign engine's
// merged output against the serial pipeline through the report layer,
// which imports core.
package core_test

import (
	"bytes"
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/report"
)

// parallelTestCfg is small enough for CI (~5 s serial) while still
// exercising every macro and several fault classes per macro.
func parallelTestCfg() core.Config {
	cfg := core.QuickConfig()
	cfg.Defects = 1200
	cfg.MCSamples = 5
	cfg.MaxClassesPerMacro = 3
	cfg.SkipNonCat = true
	return cfg
}

// renderRun captures every user-visible artifact of a run: the JSON
// summary plus the rendered per-macro and global reports.
func renderRun(t *testing.T, run *core.Run) []byte {
	t.Helper()
	data, err := report.JSON(run)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(data)
	report.PerMacro(&buf, run)
	report.Global(&buf, "global", run)
	return buf.Bytes()
}

// TestParallelMatchesSerial is the determinism contract: RunParallel is
// byte-identical to Pipeline.Run at the same seed for any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline comparison in -short mode")
	}
	cfg := parallelTestCfg()
	ref := core.NewPipeline(cfg)
	ref.Workers = 1 // the strictly serial reference
	serial, err := ref.Run(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRun(t, serial)

	for _, workers := range []int{1, 4, 9} {
		run, out, err := core.RunParallel(context.Background(), cfg, false,
			campaign.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderRun(t, run); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: parallel output differs from serial", workers)
		}
		if out.Stats.Failed != 0 || len(out.Failed) != 0 {
			t.Fatalf("workers=%d: failed units %v", workers, out.Failed)
		}
		// One macro unit per macro plus one class unit per analysis.
		if out.Stats.UnitsTotal <= len(core.NewPipeline(cfg).MacroNames()) {
			t.Fatalf("workers=%d: no class fan-out (%d units)", workers, out.Stats.UnitsTotal)
		}
	}
}

// TestCampaignCheckpointResume interrupts a campaign after a few units,
// resumes it from the checkpoint, and requires the merged result to be
// byte-identical to an uninterrupted run (satellite: checkpoint/resume
// correctness on the real pipeline).
func TestCampaignCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline comparison in -short mode")
	}
	cfg := parallelTestCfg()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	uninterrupted, _, err := core.RunParallel(context.Background(), cfg, false,
		campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := renderRun(t, uninterrupted)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	_, partial, err := core.RunParallel(ctx, cfg, false, campaign.Options{
		Workers:         2,
		Store:           campaign.FileStore{Path: ckpt},
		CheckpointEvery: 1,
		OnUnitDone: func(string, bool) {
			if done.Add(1) == 4 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if partial == nil || partial.Stats.Completed == 0 {
		t.Fatal("no units completed before cancellation")
	}

	run, out, err := core.RunParallel(context.Background(), cfg, false, campaign.Options{
		Workers: 2,
		Store:   campaign.FileStore{Path: ckpt},
		Resume:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Restored == 0 {
		t.Fatal("resume restored nothing from the checkpoint")
	}
	if got := renderRun(t, run); !bytes.Equal(got, want) {
		t.Fatal("interrupted+resumed run differs from uninterrupted run")
	}
}

// TestRunParallelFingerprintGuard: a checkpoint taken under one
// configuration must not silently poison a run under another.
func TestRunParallelFingerprintGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run in -short mode")
	}
	cfg := parallelTestCfg()
	cfg.MaxClassesPerMacro = 1
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if _, _, err := core.RunParallel(context.Background(), cfg, false,
		campaign.Options{Workers: 2, Store: campaign.FileStore{Path: ckpt}}); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if _, _, err := core.RunParallel(context.Background(), other, false,
		campaign.Options{Workers: 2, Store: campaign.FileStore{Path: ckpt}, Resume: true}); err == nil {
		t.Fatal("resume across configs must fail the fingerprint check")
	}
	// The good-space settings shape every detection, so a checkpoint
	// taken under different -mc/-nsigma overrides must refuse to merge
	// exactly like a seed change.
	mcChanged := cfg
	mcChanged.MCSamples++
	if _, _, err := core.RunParallel(context.Background(), mcChanged, false,
		campaign.Options{Workers: 2, Store: campaign.FileStore{Path: ckpt}, Resume: true}); err == nil {
		t.Fatal("resume across MCSamples settings must fail the fingerprint check")
	}
	nsChanged := cfg
	nsChanged.NSigma++
	if _, _, err := core.RunParallel(context.Background(), nsChanged, false,
		campaign.Options{Workers: 2, Store: campaign.FileStore{Path: ckpt}, Resume: true}); err == nil {
		t.Fatal("resume across NSigma settings must fail the fingerprint check")
	}
}
