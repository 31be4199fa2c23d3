package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// intResult is the payload of the synthetic units below.
type intResult struct {
	Value int `json:"value"`
}

func decodeInt(_ string, raw json.RawMessage) (any, error) {
	var r intResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// fanoutRoots builds nRoots root units, each fanning out into nKids
// children; every unit computes a deterministic function of its key.
func fanoutRoots(nRoots, nKids int, ran *sync.Map) []Unit {
	kid := func(root, k int) Unit {
		key := fmt.Sprintf("kid/%d/%d", root, k)
		return Unit{
			Key:   key,
			Group: fmt.Sprintf("g%d", root),
			Run: func(context.Context) (any, error) {
				if ran != nil {
					ran.Store(key, true)
				}
				return &intResult{Value: 100*root + k}, nil
			},
		}
	}
	var roots []Unit
	for r := 0; r < nRoots; r++ {
		r := r
		key := fmt.Sprintf("root/%d", r)
		roots = append(roots, Unit{
			Key:   key,
			Group: fmt.Sprintf("g%d", r),
			Run: func(context.Context) (any, error) {
				if ran != nil {
					ran.Store(key, true)
				}
				return &intResult{Value: r}, nil
			},
			Fanout: func(res any) []Unit {
				var kids []Unit
				for k := 0; k < nKids; k++ {
					kids = append(kids, kid(res.(*intResult).Value, k))
				}
				return kids
			},
		})
	}
	return roots
}

// collect flattens an outcome's results into a sorted "key=value" list.
func collect(t *testing.T, out *Outcome) []string {
	t.Helper()
	var got []string
	for k, v := range out.Results {
		got = append(got, fmt.Sprintf("%s=%d", k, v.(*intResult).Value))
	}
	sort.Strings(got)
	return got
}

func TestExecuteFanout(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		out, err := Execute(context.Background(), Options{Workers: workers}, fanoutRoots(3, 4, nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out.Results) != 3+3*4 {
			t.Fatalf("workers=%d: %d results", workers, len(out.Results))
		}
		if out.Stats.Completed != 15 || out.Stats.UnitsTotal != 15 || out.Stats.Failed != 0 {
			t.Fatalf("workers=%d: stats %+v", workers, out.Stats)
		}
		if v := out.Results["kid/2/3"].(*intResult).Value; v != 203 {
			t.Fatalf("workers=%d: kid/2/3 = %d", workers, v)
		}
		if out.Stats.Workers != workers {
			t.Fatalf("stats workers = %d", out.Stats.Workers)
		}
		// Per-group metrics: each group holds its root + 4 kids.
		if g := out.Stats.Groups["g1"]; g == nil || g.Units != 5 {
			t.Fatalf("workers=%d: group g1 = %+v", workers, g)
		}
	}
}

// TestExecuteDeterministicResults: the keyed result set is identical for
// every worker count (merge order is the caller's concern; the engine
// guarantees the same key→result mapping).
func TestExecuteDeterministicResults(t *testing.T) {
	base, err := Execute(context.Background(), Options{Workers: 1}, fanoutRoots(4, 7, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		out, err := Execute(context.Background(), Options{Workers: workers}, fanoutRoots(4, 7, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(collect(t, base), collect(t, out)) {
			t.Fatalf("workers=%d: results differ from serial", workers)
		}
	}
}

// TestRetryAndPanicRecovery: a unit that panics on its first attempts
// succeeds within the retry budget; one that always panics is recorded
// as failed without killing the campaign.
func TestRetryAndPanicRecovery(t *testing.T) {
	var flakyTries, doomedTries atomic.Int32
	units := []Unit{
		{
			Key: "ok", Group: "g",
			Run: func(context.Context) (any, error) { return &intResult{Value: 1}, nil },
		},
		{
			Key: "flaky", Group: "g",
			Run: func(context.Context) (any, error) {
				if flakyTries.Add(1) < 3 {
					panic("transient")
				}
				return &intResult{Value: 2}, nil
			},
		},
		{
			Key: "doomed", Group: "g",
			Run: func(context.Context) (any, error) {
				doomedTries.Add(1)
				return nil, fmt.Errorf("permanent")
			},
		},
	}
	out, err := Execute(context.Background(), Options{Workers: 2, MaxRetries: 2}, units)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("results = %v", out.Results)
	}
	if msg, ok := out.Failed["doomed"]; !ok || !strings.Contains(msg, "permanent") {
		t.Fatalf("failed map = %v", out.Failed)
	}
	if doomedTries.Load() != 3 { // 1 attempt + 2 retries
		t.Fatalf("doomed attempts = %d", doomedTries.Load())
	}
	if out.Stats.Retries != 4 || out.Stats.Failed != 1 || out.Stats.Completed != 2 {
		t.Fatalf("stats = %+v", out.Stats)
	}
	if g := out.Stats.Groups["g"]; g.Failed != 1 || g.Units != 2 {
		t.Fatalf("group = %+v", g)
	}
}

// TestCheckpointResume: a second execution over the same checkpoint runs
// nothing live and reproduces the full result set.
func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sub", "run.ckpt")
	opts := Options{
		Workers: 3, Store: FileStore{Path: ckpt}, CheckpointEvery: 4,
		Fingerprint: "test-v1", Decode: decodeInt,
	}
	first, err := Execute(context.Background(), opts, fanoutRoots(3, 5, nil))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Checkpoints == 0 {
		t.Fatal("no checkpoint writes")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatal(err)
	}

	var ran sync.Map
	opts.Resume = true
	second, err := Execute(context.Background(), opts, fanoutRoots(3, 5, &ran))
	if err != nil {
		t.Fatal(err)
	}
	liveRuns := 0
	ran.Range(func(_, _ any) bool { liveRuns++; return true })
	if liveRuns != 0 {
		t.Fatalf("%d units ran live on resume", liveRuns)
	}
	if second.Stats.Restored != 18 || second.Stats.Completed != 18 {
		t.Fatalf("resume stats = %+v", second.Stats)
	}
	if !reflect.DeepEqual(collect(t, first), collect(t, second)) {
		t.Fatal("resumed results differ")
	}
}

// TestCheckpointFingerprintMismatch: resuming under a different
// configuration must refuse.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	opts := Options{Store: FileStore{Path: ckpt}, Fingerprint: "cfg-a", Decode: decodeInt}
	if _, err := Execute(context.Background(), opts, fanoutRoots(1, 1, nil)); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	opts.Fingerprint = "cfg-b"
	if _, err := Execute(context.Background(), opts, fanoutRoots(1, 1, nil)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("want fingerprint error, got %v", err)
	}
}

// TestCancelThenResume: cancelling mid-run flushes the checkpoint; the
// resumed campaign completes the remainder and the union matches an
// uninterrupted run.
func TestCancelThenResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	opts := Options{
		Workers: 2, Store: FileStore{Path: ckpt}, CheckpointEvery: 1,
		Fingerprint: "test-v1", Decode: decodeInt,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	opts.OnUnitDone = func(string, bool) {
		if done.Add(1) == 5 {
			cancel()
		}
	}
	// Pad each unit so cancellation lands mid-run rather than after the
	// whole (microsecond-sized) graph has drained; scheduling may still
	// let everything finish, which the assertions below tolerate.
	pad := func(u Unit) Unit {
		inner := u.Run
		u.Run = func(ctx context.Context) (any, error) {
			time.Sleep(2 * time.Millisecond)
			return inner(ctx)
		}
		return u
	}
	roots := fanoutRoots(3, 6, nil)
	for i := range roots {
		roots[i] = pad(roots[i])
		innerFan := roots[i].Fanout
		roots[i].Fanout = func(res any) []Unit {
			kids := innerFan(res)
			for k := range kids {
				kids[k] = pad(kids[k])
			}
			return kids
		}
	}
	partial, err := Execute(ctx, opts, roots)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if partial == nil || partial.Stats.Completed == 0 {
		t.Fatalf("partial outcome: %+v", partial)
	}

	opts.OnUnitDone = nil
	opts.Resume = true
	resumed, err := Execute(context.Background(), opts, fanoutRoots(3, 6, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Results) != 21 {
		t.Fatalf("resumed results = %d", len(resumed.Results))
	}
	if resumed.Stats.Restored == 0 {
		t.Fatal("nothing restored after interrupt")
	}

	full, err := Execute(context.Background(), Options{Workers: 2}, fanoutRoots(3, 6, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collect(t, full), collect(t, resumed)) {
		t.Fatal("interrupted+resumed differs from uninterrupted")
	}
}

// TestUndecodablePayloadReruns: a checkpoint entry that fails to decode
// is re-run live instead of failing the campaign.
func TestUndecodablePayloadReruns(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	// Hand-craft a checkpoint with one good and one corrupt payload.
	ck := Checkpoint{
		Version:     checkpointVersion,
		Fingerprint: "test-v1",
		Results: map[string]json.RawMessage{
			"root/0":  json.RawMessage(`{"value":0}`),
			"kid/0/0": json.RawMessage(`"not an object"`),
		},
	}
	data, _ := json.Marshal(&ck)
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ran sync.Map
	out, err := Execute(context.Background(), Options{
		Store: FileStore{Path: ckpt}, Resume: true, Fingerprint: "test-v1", Decode: decodeInt,
	}, fanoutRoots(1, 2, &ran))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d", len(out.Results))
	}
	if _, ok := ran.Load("kid/0/0"); !ok {
		t.Fatal("corrupt unit was not re-run")
	}
	if _, ok := ran.Load("root/0"); ok {
		t.Fatal("good unit was re-run")
	}
}

// TestWorkerUtilizationAndSteals: sanity bounds on the metrics.
func TestWorkerUtilizationAndSteals(t *testing.T) {
	out, err := Execute(context.Background(), Options{Workers: 4}, fanoutRoots(2, 30, nil))
	if err != nil {
		t.Fatal(err)
	}
	s := out.Stats
	if s.Utilization < 0 || s.Utilization > 1.5 {
		t.Fatalf("utilization = %g", s.Utilization)
	}
	if s.WallMS < 0 || s.BusyMS < 0 {
		t.Fatalf("times: %+v", s)
	}
	data, err := s.JSON()
	if err != nil || !json.Valid(data) {
		t.Fatalf("stats JSON: %v", err)
	}
	var buf strings.Builder
	s.Print(&buf)
	if !strings.Contains(buf.String(), "utilization") {
		t.Fatalf("print output:\n%s", buf.String())
	}
}
