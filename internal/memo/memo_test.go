package memo

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOneComputeForConcurrentCallers: concurrent first callers of one
// key share a single compute, and every one of them gets its value.
func TestOneComputeForConcurrentCallers(t *testing.T) {
	var m Map[string, float64]
	var calls atomic.Int32
	compute := func() (float64, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		return 0.25, nil
	}
	var hits atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := m.Do(context.Background(), "k", compute)
			if err != nil || v != 0.25 {
				t.Errorf("Do = %g, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d computes for one key, want 1", n)
	}
	if n := hits.Load(); n != 7 {
		t.Fatalf("%d callers reported a hit, want 7 (all but the owner)", n)
	}
	if v, hit, err := m.Do(context.Background(), "k", compute); v != 0.25 || !hit || err != nil || calls.Load() != 1 {
		t.Fatalf("cached lookup = %g, hit %v, %v after %d computes", v, hit, err, calls.Load())
	}
}

// TestErrorNotCached: a failed compute — a genuine error or a
// cancellation — reaches its caller and is not cached, so the next
// caller computes again.
func TestErrorNotCached(t *testing.T) {
	for _, fail := range []error{errors.New("boom"), context.Canceled} {
		var m Map[int, int]
		if _, hit, err := m.Do(context.Background(), 1, func() (int, error) { return 0, fail }); err != fail || hit {
			t.Fatalf("failing compute = hit %v, %v; want %v", hit, err, fail)
		}
		if v, hit, err := m.Do(context.Background(), 1, func() (int, error) { return 7, nil }); v != 7 || hit || err != nil {
			t.Fatalf("after %v = %d, hit %v, %v; want a fresh compute", fail, v, hit, err)
		}
	}
}

// startOwner runs an owner compute for key on its own goroutine and
// returns once it is in flight. The compute blocks until release is
// closed, then returns result.
func startOwner(t *testing.T, m *Map[int, int], ctx context.Context, release <-chan struct{}, result func() (int, error)) <-chan error {
	t.Helper()
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := m.Do(ctx, 1, func() (int, error) {
			close(started)
			<-release
			return result()
		})
		errc <- err
	}()
	<-started
	return errc
}

// waitJoined waits until some caller is blocked in Do's select — that
// is, has joined an in-flight compute — by polling the goroutine dump.
func waitJoined(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "memo.(*Map[...]).Do(") {
				return
			}
		}
	}
	t.Fatal("no caller joined the in-flight compute")
}

// TestJoinedWaiterGetsGenuineError: a caller that joined an in-flight
// compute receives the owner's error and does not compute itself.
func TestJoinedWaiterGetsGenuineError(t *testing.T) {
	var m Map[int, int]
	boom := errors.New("deterministic failure")
	release := make(chan struct{})
	owner := startOwner(t, &m, context.Background(), release, func() (int, error) { return 0, boom })

	waiter := make(chan error, 1)
	var recomputed atomic.Bool
	go func() {
		_, hit, err := m.Do(context.Background(), 1, func() (int, error) {
			recomputed.Store(true)
			return 1, nil
		})
		if hit {
			err = errors.New("a failed compute reported a hit")
		}
		waiter <- err
	}()
	waitJoined(t)
	close(release)
	if err := <-owner; err != boom {
		t.Fatalf("owner err = %v, want %v", err, boom)
	}
	if err := <-waiter; err != boom {
		t.Fatalf("joined waiter err = %v, want the owner's %v", err, boom)
	}
	if recomputed.Load() {
		t.Fatal("the joined waiter recomputed after a genuine error")
	}
}

// TestPanickingComputeReleasesKey: a compute that panics — recovered
// further up the owner's stack — must not leave its joined callers
// blocked forever. They receive an error, the panic reaches the owner,
// and nothing is cached, so the next caller computes again.
func TestPanickingComputeReleasesKey(t *testing.T) {
	var m Map[int, int]
	release := make(chan struct{})
	started := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		m.Do(context.Background(), 1, func() (int, error) {
			close(started)
			<-release
			panic("injected")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := m.Do(context.Background(), 1, func() (int, error) { return 1, nil })
		waiter <- err
	}()
	waitJoined(t)
	close(release)
	if r := <-recovered; r != "injected" {
		t.Fatalf("owner recovered %v, want the compute's panic", r)
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("the joined waiter got a value from a panicked compute")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the joined waiter is still blocked after the owner panicked")
	}
	v, hit, err := m.Do(context.Background(), 1, func() (int, error) { return 2, nil })
	if err != nil || hit || v != 2 {
		t.Fatalf("after the panic Do = (%d, hit=%v, %v), want a fresh compute of 2", v, hit, err)
	}
}

// TestLiveWaiterTakesOverFromCancelledOwner: when the owner is cancelled,
// a joined caller whose context is live computes the key itself, and
// its value is cached.
func TestLiveWaiterTakesOverFromCancelledOwner(t *testing.T) {
	var m Map[int, int]
	ownerCtx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	owner := startOwner(t, &m, ownerCtx, release, func() (int, error) { return 0, ownerCtx.Err() })

	waiter := make(chan int, 1)
	go func() {
		v, _, err := m.Do(context.Background(), 1, func() (int, error) { return 42, nil })
		if err != nil {
			t.Errorf("live waiter err = %v", err)
		}
		waiter <- v
	}()
	waitJoined(t)
	cancel()
	close(release)
	if err := <-owner; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want cancellation", err)
	}
	if v := <-waiter; v != 42 {
		t.Fatalf("live waiter = %d, want its own compute's 42", v)
	}
	if v, hit, _ := m.Do(context.Background(), 1, func() (int, error) { return -1, nil }); v != 42 || !hit {
		t.Fatalf("after takeover = %d, hit %v; want the cached 42", v, hit)
	}
}

// TestWaiterCancellationReturnsPromptly: a joined caller whose own
// context is cancelled returns ctx.Err() without waiting for the owner,
// and the owner's later success is still cached.
func TestWaiterCancellationReturnsPromptly(t *testing.T) {
	var m Map[int, int]
	release := make(chan struct{})
	owner := startOwner(t, &m, context.Background(), release, func() (int, error) { return 5, nil })

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, _, err := m.Do(ctx, 1, func() (int, error) { return -1, nil })
		waiter <- err
	}()
	waitJoined(t)
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the owner's compute")
	}
	close(release)
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	if v, hit, _ := m.Do(context.Background(), 1, func() (int, error) { return -1, nil }); v != 5 || !hit {
		t.Fatalf("owner's value = %d, hit %v; want the cached 5", v, hit)
	}
}

// TestNilMapJustComputes: a nil *Map caches nothing.
func TestNilMapJustComputes(t *testing.T) {
	var m *Map[int, int]
	var calls int
	for i := 0; i < 3; i++ {
		v, hit, err := m.Do(context.Background(), 1, func() (int, error) { calls++; return 9, nil })
		if v != 9 || hit || err != nil {
			t.Fatalf("nil Do = %d, hit %v, %v", v, hit, err)
		}
	}
	if calls != 3 {
		t.Fatalf("%d computes through a nil Map, want 3", calls)
	}
}

// TestKeysAreIndependent: a slow compute of one key does not block
// another key.
func TestKeysAreIndependent(t *testing.T) {
	var m Map[int, int]
	release := make(chan struct{})
	owner := startOwner(t, &m, context.Background(), release, func() (int, error) { return 1, nil })
	if v, _, err := m.Do(context.Background(), 2, func() (int, error) { return 2, nil }); v != 2 || err != nil {
		t.Fatalf("other key = %d, %v", v, err)
	}
	close(release)
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
}
