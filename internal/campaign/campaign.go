// Package campaign is the parallel fault-simulation campaign engine: it
// executes a set of independent work units — and the units those units
// fan out into — on a bounded work-stealing worker pool, with per-unit
// panic recovery, bounded retry, periodic JSON checkpointing for
// resumable runs, and a run-metrics snapshot.
//
// The engine is deliberately generic: a Unit is any keyed computation
// returning a JSON-serialisable result, so the package has no dependency
// on the methodology pipeline. internal/core decomposes a methodology
// run into per-macro defect-sprinkle units that fan out into per-fault-
// class analysis units, and merges the keyed results back in canonical
// order — which is what makes parallel output bit-identical to serial
// output regardless of worker count or scheduling order. Its
// good-space compile runs the Monte Carlo dies as the units of a
// campaign of their own, read back in die order.
package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Unit is one independent computation of a campaign.
type Unit struct {
	// Key uniquely and stably identifies the unit; it is the checkpoint
	// key and the handle under which the result is returned.
	Key string
	// Group labels the unit for per-group metrics (the per-macro wall
	// times in the methodology campaign).
	Group string
	// Run performs the computation. The result must be JSON-marshalable
	// when checkpointing is enabled.
	Run func(ctx context.Context) (any, error)
	// Fanout, if non-nil, maps the unit's result to follow-up units.
	// It is invoked exactly once per completed unit — including units
	// restored from a checkpoint, so a resumed campaign re-discovers
	// the full unit graph without re-running finished work.
	Fanout func(result any) []Unit

	// retried counts re-attempts while the unit sits in a deque.
	retried int
}

// Options configures a campaign execution.
type Options struct {
	// Workers bounds the worker pool; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// MaxRetries is how many times a failing unit is re-attempted before
	// it is recorded as failed and the campaign degrades around it
	// (default 1 retry).
	MaxRetries int
	// Store is the checkpoint persistence backend (nil disables
	// checkpointing): dotest passes the single-file FileStore of its
	// -checkpoint path, and the job server a shared content-addressed
	// DirStore, so every job's checkpoint survives daemon restarts under
	// its own fingerprint.
	Store Store
	// Gate, when non-nil, admits each live unit execution through an
	// external slot budget. Several concurrent campaigns sharing one
	// FairGate interleave unit-granular work fairly instead of
	// oversubscribing the machine.
	Gate Gate
	// Executor, when non-nil, is offered every live unit before local
	// execution (see Executor). Remote execution happens outside the
	// Gate — a unit running on another machine consumes no local slot —
	// and requires Decode, which rebuilds the typed result from the
	// remotely marshalled JSON just as it rebuilds checkpoint payloads.
	Executor Executor
	// Resume loads the checkpoint before executing and skips every unit
	// whose result it already holds.
	Resume bool
	// CheckpointEvery is the number of completed units between persists
	// (default 16). The checkpoint is always written once more when the
	// campaign ends — including on cancellation, so an interrupted run
	// can be resumed.
	CheckpointEvery int
	// Fingerprint identifies the configuration that produced the
	// checkpoint; resuming against a different fingerprint is an error.
	Fingerprint string
	// Decode rebuilds a typed unit result from checkpointed JSON. It is
	// required when Resume is set; a unit whose payload fails to decode
	// is simply re-run.
	Decode func(key string, raw json.RawMessage) (any, error)
	// OnUnitDone, if non-nil, observes each unit completion (restored
	// reports checkpoint hits). Called from worker goroutines.
	OnUnitDone func(key string, restored bool)
	// OnProgress, if non-nil, observes the campaign's live unit counters
	// after every unit resolution (successes and exhausted failures; not
	// retries). Called from worker goroutines; the job server turns
	// these into streamed progress events.
	OnProgress func(p Progress)
}

// Progress is a live snapshot of the campaign's unit counters. Total
// grows as completed units fan out new work, so Completed/Total is a
// lower bound on the fraction done, not an exact one.
type Progress struct {
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Restored  int `json:"restored"`
	Failed    int `json:"failed"`
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) maxRetries() int {
	if o.MaxRetries < 0 {
		return 0
	}
	if o.MaxRetries == 0 {
		return 1
	}
	return o.MaxRetries
}

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery <= 0 {
		return 16
	}
	return o.CheckpointEvery
}

// Outcome is everything a campaign produced.
type Outcome struct {
	// Results maps unit keys to their (typed) results.
	Results map[string]any
	// Failed maps the keys of units that exhausted their retries to the
	// final error message.
	Failed map[string]string
	// Stats is the run-metrics snapshot.
	Stats Stats
}

// Execute runs the campaign to completion (or cancellation) and returns
// the keyed results. On context cancellation the partial Outcome is
// returned together with the context error, after a final checkpoint
// flush — so the caller can resume later.
func Execute(ctx context.Context, opts Options, roots []Unit) (*Outcome, error) {
	e := &engine{
		opts:    opts,
		results: map[string]any{},
		raw:     map[string]json.RawMessage{},
		failed:  map[string]string{},
		seen:    map[string]bool{},
	}
	e.cond = sync.NewCond(&e.mu)
	e.stats.Workers = opts.workers()
	e.stats.Groups = map[string]*GroupStats{}

	if opts.Resume && opts.Store != nil {
		ck, err := opts.Store.Load(opts.Fingerprint)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			if ck.Fingerprint != opts.Fingerprint {
				return nil, fmt.Errorf(
					"campaign: checkpoint %v was produced by a different configuration (fingerprint %q, want %q)",
					opts.Store, ck.Fingerprint, opts.Fingerprint)
			}
			e.restored = ck.Results
		}
	}

	n := opts.workers()
	e.deques = make([][]Unit, n)
	e.busy = make([]time.Duration, n)
	for i, u := range roots {
		e.enqueueLocked(i%n, u)
	}

	// Propagate cancellation into the scheduler: workers between units
	// observe e.stopped and drain out.
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			e.mu.Lock()
			e.stopped = true
			e.mu.Unlock()
			e.cond.Broadcast()
		case <-stopWatch:
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.worker(ctx, id)
		}(i)
	}
	wg.Wait()
	close(stopWatch)

	e.mu.Lock()
	e.stats.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	var busy time.Duration
	for _, b := range e.busy {
		busy += b
	}
	e.stats.BusyMS = float64(busy) / float64(time.Millisecond)
	if e.stats.WallMS > 0 && n > 0 {
		e.stats.Utilization = e.stats.BusyMS / (e.stats.WallMS * float64(n))
	}
	out := &Outcome{Results: e.results, Failed: e.failed, Stats: e.stats}
	ckErr := e.ckptErr
	e.mu.Unlock()

	// Final flush so interrupted campaigns can resume.
	if opts.Store != nil {
		if err := e.saveCheckpoint(); err != nil && ckErr == nil {
			ckErr = err
		}
		e.mu.Lock()
		out.Stats = e.stats
		e.mu.Unlock()
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if ckErr != nil {
		return out, ckErr
	}
	return out, nil
}
