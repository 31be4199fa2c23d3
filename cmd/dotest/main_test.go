package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// The interrupt tests re-execute this test binary as a child that runs
// interruptContext around a slow "shutdown" (a stand-in for a checkpoint
// flush that is taking a while, or a wedged run). The parent delivers
// real SIGINTs and observes whether the child dies hard or finishes
// gracefully — the exact contract of the dotest signal handling.
func TestMain(m *testing.M) {
	if os.Getenv("DOTEST_TEST_INTERRUPT_CHILD") == "1" {
		interruptChild()
		return
	}
	if os.Getenv("DOTEST_TEST_ANALYZE_CHILD") == "1" {
		analyzeInterruptChild()
		return
	}
	os.Exit(m.Run())
}

// TestParseFlagsResolvesThroughJobSpec pins the CLI to the daemon's
// configuration path: every flag combination resolves to exactly the
// Config of the JobSpec carrying the same fields, so an explicit flag
// overrides the -quick preset instead of being dropped.
func TestParseFlagsResolvesThroughJobSpec(t *testing.T) {
	cases := []struct {
		args []string
		want core.JobSpec
	}{
		{nil, core.JobSpec{}},
		{[]string{"-quick"}, core.JobSpec{Quick: true}},
		{[]string{"-quick", "-maxclasses", "4"}, core.JobSpec{Quick: true, MaxClassesPerMacro: 4}},
		{[]string{"-quick", "-defects", "500"}, core.JobSpec{Quick: true, Defects: 500}},
		{[]string{"-quick", "-mc", "5", "-nsigma", "2.5"}, core.JobSpec{Quick: true, MCSamples: 5, NSigma: 2.5}},
		{[]string{"-seed", "7"}, core.JobSpec{Seed: 7}},
		{[]string{"-bits", "6"}, core.JobSpec{Bits: 6}},
		{[]string{"-quick", "-bits", "6", "-dft", "pre", "-maxclasses", "4"},
			core.JobSpec{Quick: true, Bits: 6, DfT: "pre", MaxClassesPerMacro: 4}},
		{[]string{"-dft", "pre", "-defects", "400", "-mag", "1000", "-mc", "3", "-maxclasses", "1"},
			core.JobSpec{DfT: "pre", Defects: 400, MagnitudeDefects: 1000, MCSamples: 3, MaxClassesPerMacro: 1}},
	}
	for _, c := range cases {
		o, err := parseFlags(newFlagSet(), c.args)
		if err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		if got, want := o.spec.Config(), c.want.Config(); got != want {
			t.Errorf("%q resolved to %+v, want %+v", c.args, got, want)
		}
		if got, want := o.spec.Fingerprint(), c.want.Fingerprint(); got != want {
			t.Errorf("%q job fingerprint %s, want %s", c.args, got, want)
		}
	}
}

// TestParseFlagsRejects: invalid specs fail through JobSpec.Validate,
// and flag combinations the engines cannot serve fail before any work.
func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "-1"},
		{"-defects", "-500"},
		{"-dft", "sideways"},
		{"-bits", "1"},
		{"-checkpoint", "run.ckpt", "-macro", "ladder"},
		{"-resume"},
		{"-json-stats", "stats.json"},
		{"-v", "-workers", "0", "-macro", "comparator"},
	} {
		if _, err := parseFlags(newFlagSet(), args); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("dotest", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// analyzeInterruptChild runs a real (quick) campaign under
// interruptContext, announcing unit completions on stdout so the parent
// can deliver a SIGINT while class analyses — long analog fault
// simulations — are in flight. The cancellation must reach into the
// Newton/transient loops and return in bounded time, with the
// checkpoint flushed.
func analyzeInterruptChild() {
	ctx, stop := interruptContext(context.Background())
	defer stop()
	cfg := core.QuickConfig()
	opts := campaign.Options{
		Workers:    2,
		Checkpoint: os.Getenv("DOTEST_TEST_CHECKPOINT"),
		OnUnitDone: func(key string, restored bool) { fmt.Println("unit", key) },
	}
	fmt.Println("ready")
	_, _, err := core.RunParallel(ctx, cfg, false, opts)
	switch {
	case err != nil && ctx.Err() != nil:
		fmt.Println("cancelled")
	case err != nil:
		fmt.Println("error:", err)
		os.Exit(1)
	default:
		// The run outpaced the parent's SIGINT; the parent treats this
		// as inconclusive rather than failing.
		fmt.Println("finished")
	}
}

func interruptChild() {
	ctx, stop := interruptContext(context.Background())
	defer stop()
	fmt.Println("ready")
	<-ctx.Done()
	// Simulated post-cancellation shutdown work (checkpoint flush). A
	// second SIGINT during this window must kill the process; without
	// one the work completes and the exit is graceful.
	time.Sleep(2 * time.Second)
	fmt.Println("graceful")
}

// startInterruptChild launches the child and waits for it to install its
// signal handler.
func startInterruptChild(t *testing.T) (*exec.Cmd, *bufio.Reader) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "DOTEST_TEST_INTERRUPT_CHILD=1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(out)
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ready" {
		t.Fatalf("child handshake: %q, %v", line, err)
	}
	return cmd, r
}

// TestSecondInterruptForceQuits is the regression test for the swallowed
// second Ctrl-C: after the first SIGINT starts the graceful shutdown,
// interruptContext must restore the default handler so the next SIGINT
// terminates the process immediately.
func TestSecondInterruptForceQuits(t *testing.T) {
	cmd, _ := startInterruptChild(t)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	// Give the cancellation goroutine time to restore the default
	// handler, then deliver the force-quit.
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("child exited cleanly; the second SIGINT was swallowed")
		}
	case <-time.After(1500 * time.Millisecond):
		cmd.Process.Kill()
		<-done
		t.Fatal("child survived a second SIGINT (still in its shutdown sleep)")
	}
}

// TestInterruptDuringAnalyzeLeavesResumableCheckpoint is the
// end-to-end cancellation contract: a SIGINT delivered while class
// analyses (long analog fault simulations) are running must (a) abort
// the campaign within a bounded deadline — the context check inside the
// Newton and transient loops is what makes this bounded, not the length
// of a solve — and (b) leave a fingerprint-valid checkpoint from which
// a second campaign resumes, restoring the interrupted run's completed
// units instead of recomputing them.
func TestInterruptDuringAnalyzeLeavesResumableCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real quick campaign twice")
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"DOTEST_TEST_ANALYZE_CHILD=1",
		"DOTEST_TEST_CHECKPOINT="+ckpt)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Collect child stdout lines; interrupt once a few units have
	// completed, which guarantees class analyses are in flight on the
	// other worker.
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	readLine := func(timeout time.Duration) string {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatal("child stdout closed early")
			}
			return l
		case <-time.After(timeout):
			t.Fatal("timed out waiting for child output")
		}
		panic("unreachable")
	}
	if l := readLine(30 * time.Second); l != "ready" {
		t.Fatalf("handshake: %q", l)
	}
	units := 0
	for units < 3 {
		if strings.HasPrefix(readLine(60*time.Second), "unit ") {
			units++
		}
	}
	interruptAt := time.Now()
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}

	// Drain the remaining output, watching for the child's verdict.
	verdict := ""
	for l := range lines {
		if l == "cancelled" || l == "finished" || strings.HasPrefix(l, "error:") {
			verdict = l
		}
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("child exited with error: %v (verdict %q)", err, verdict)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("cancellation did not abort the campaign within the deadline")
	}
	t.Logf("child shut down %s after SIGINT, verdict %q", time.Since(interruptAt).Round(time.Millisecond), verdict)
	if verdict == "finished" {
		t.Skip("campaign completed before the SIGINT landed; nothing to resume")
	}
	if verdict != "cancelled" {
		t.Fatalf("child verdict %q, want cancelled", verdict)
	}

	// The flushed checkpoint must carry the configuration fingerprint
	// and at least the units the child reported before the interrupt.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint not flushed: %v", err)
	}
	var ck struct {
		Version     int                        `json:"version"`
		Fingerprint string                     `json:"fingerprint"`
		Results     map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatalf("checkpoint unreadable: %v", err)
	}
	if want := core.Fingerprint(core.QuickConfig(), false); ck.Fingerprint != want {
		t.Fatalf("checkpoint fingerprint = %q, want %q", ck.Fingerprint, want)
	}
	if len(ck.Results) == 0 {
		t.Fatal("checkpoint has no completed units")
	}

	// And a resumed campaign must restore them rather than recompute.
	run, outc, err := core.RunParallel(context.Background(), core.QuickConfig(), false,
		campaign.Options{Workers: 2, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if run == nil || len(run.Macros) == 0 {
		t.Fatal("resumed run is empty")
	}
	if outc.Stats.Restored == 0 {
		t.Fatal("resume restored no units from the checkpoint")
	}
	t.Logf("resume restored %d/%d units", outc.Stats.Restored, outc.Stats.UnitsTotal)
}

// TestFirstInterruptShutsDownGracefully pins the other half of the
// contract: a single SIGINT must not kill the process before the
// shutdown work (the checkpoint flush) completes.
func TestFirstInterruptShutsDownGracefully(t *testing.T) {
	cmd, r := startInterruptChild(t)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "graceful" {
		t.Fatalf("child did not finish its shutdown work: %q, %v", line, err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited with error: %v", err)
	}
}

// TestSigtermShutsDownGracefully: a service manager's SIGTERM gets the
// same graceful shutdown as a Ctrl-C — the shutdown work (checkpoint
// flush) completes and the process exits cleanly instead of dying on
// the default SIGTERM disposition.
func TestSigtermShutsDownGracefully(t *testing.T) {
	cmd, r := startInterruptChild(t)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "graceful" {
		t.Fatalf("child did not finish its shutdown work after SIGTERM: %q, %v", line, err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("graceful SIGTERM shutdown exited with error: %v", err)
	}
}

// TestSecondSignalAfterSigtermForceQuits: like the SIGINT pair, the
// default handler is restored once the SIGTERM-initiated shutdown
// starts, so a follow-up signal force-quits a wedged drain.
func TestSecondSignalAfterSigtermForceQuits(t *testing.T) {
	cmd, _ := startInterruptChild(t)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("child exited cleanly; the second SIGTERM was swallowed")
		}
	case <-time.After(1500 * time.Millisecond):
		cmd.Process.Kill()
		<-done
		t.Fatal("child survived a second SIGTERM (still in its shutdown sleep)")
	}
}
