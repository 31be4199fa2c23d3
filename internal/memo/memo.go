// Package memo is the pipeline's one compute-once mechanism: a keyed
// cache whose concurrent first callers of a key share a single compute
// (a single-flight) instead of each running their own. The paper's flow
// computes the good machine once — the good-signature space, the nominal
// responses, the comparator's design offset — and compares every fault
// against it; every such "once" goes through a Map.
//
// The policy, stated once:
//
//   - Only successes are cached. A failed compute leaves the key empty,
//     so the next caller computes again.
//   - A caller that joined an in-flight compute receives the owner's
//     result: its value, or its genuine error.
//   - When the owner's compute was cancelled (its error is a context
//     cancellation or deadline), a joined caller whose own context is
//     still live takes the key over and computes it itself.
//   - A joined caller whose own context is cancelled returns ctx.Err()
//     at once, without waiting for the owner.
//   - A compute that panics caches nothing either: its joined callers
//     receive an error, and the panic continues on the owner's stack.
//   - A nil *Map caches nothing: Do just computes.
//
// A compute must not request its own key from the same Map: it would
// wait on itself forever. Computes may use other Maps.
package memo

import (
	"context"
	"errors"
	"sync"
)

// Map memoises one value per key. The zero Map is empty and ready to
// use; a Map must not be copied after first use.
type Map[K comparable, V any] struct {
	mu    sync.Mutex
	done  map[K]V
	calls map[K]*call[V]
}

// call is one in-flight compute: done closes once v and err are set.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns the value for key, running compute on a miss. hit reports
// that this caller did not run compute — the value came from the cache
// or from a compute it joined. compute runs on the caller's goroutine
// and should observe ctx itself; Do uses ctx only while waiting on
// another caller's compute.
func (m *Map[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (v V, hit bool, err error) {
	if m == nil {
		v, err = compute()
		return v, false, err
	}
	for {
		m.mu.Lock()
		if v, ok := m.done[key]; ok {
			m.mu.Unlock()
			return v, true, nil
		}
		if c, ok := m.calls[key]; ok {
			m.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
			if c.err == nil {
				return c.v, true, nil
			}
			if cancelled(c.err) && ctx.Err() == nil {
				// The owner was cancelled and we were not: its entry is
				// gone, so loop and compute ourselves.
				continue
			}
			return v, false, c.err
		}
		if m.calls == nil {
			m.done, m.calls = map[K]V{}, map[K]*call[V]{}
		}
		c := &call[V]{done: make(chan struct{})}
		m.calls[key] = c
		m.mu.Unlock()

		m.own(key, c, compute)
		return c.v, false, c.err
	}
}

// errPanicked is what joined callers receive when the owner's compute
// panicked; the panic itself continues up the owner's stack.
var errPanicked = errors.New("memo: compute panicked")

// own runs compute for the in-flight call c and publishes its result.
// The publication is deferred so that a panicking compute — recovered
// further up, say by a campaign worker — still releases the key and its
// waiters instead of leaving them blocked forever.
func (m *Map[K, V]) own(key K, c *call[V], compute func() (V, error)) {
	c.err = errPanicked // overwritten when compute returns
	defer func() {
		m.mu.Lock()
		if c.err == nil {
			m.done[key] = c.v
		}
		delete(m.calls, key)
		m.mu.Unlock()
		close(c.done)
	}()
	c.v, c.err = compute()
}

// cancelled reports whether err is a context cancellation or deadline.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
