package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/spice"
)

// forEach calls fn for every index in [0, n) on at most workers
// goroutines (<= 1 is a strictly serial, in-order loop). It is the
// fan-out inside one unit of work, the good-space dies (goodSamples);
// the units themselves are scheduled by the campaign engine (see
// execute). Workers claim indexes from a shared counter, so which
// goroutine runs which index is schedule-dependent; callers make the
// result invariant by writing index i's output only to slot i. The
// first failure cancels the group's context, and a real failure is
// returned ahead of the cancellations it caused in the other workers.
// Cancelling ctx aborts the group in bounded time: fn sees the
// cancellation, and no new index is claimed.
func forEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || gctx.Err() != nil {
					return
				}
				if err := fn(gctx, i); err != nil {
					errs[w] = err
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var cancelErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case spice.IsCancelled(err):
			if cancelErr == nil {
				cancelErr = err
			}
		default:
			return err
		}
	}
	if cancelErr != nil {
		return cancelErr
	}
	// Indexes skipped because ctx was cancelled underneath the group.
	return ctx.Err()
}
