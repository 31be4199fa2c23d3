// Package worker is the remote campaign worker behind cmd/campaignw: it
// connects to a campaignd daemon, long-polls the lease endpoint for
// unit keys, reconstructs the pipeline locally from the granted
// core.JobSpec, executes each unit with core.ExecuteUnit, and posts the
// marshalled result back. Determinism makes this safe: a unit key plus
// the spec fully determines the unit's bytes, so a worker's result is
// indistinguishable from a local run of the same unit — the daemon
// merges it through the restored-unit decode path and the job output
// stays byte-identical whether zero, one or many workers participate.
//
// The failure contract is lease-shaped. The worker heartbeats each
// lease at a third of its TTL; if the worker dies, the daemon expires
// the lease and re-runs the unit locally, and any late result posts are
// answered 410 Gone and discarded — work is never lost and never merged
// twice. Conversely the worker survives the daemon: connection errors
// back off exponentially (capped, deterministically jittered) and the
// worker reconnects when the daemon returns, including to a restarted
// daemon that resumed the job from its checkpoint store.
package worker

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jobserver"
)

// Options configures a Worker.
type Options struct {
	// Base is the daemon's base URL (e.g. http://127.0.0.1:8120).
	Base string
	// ID identifies this worker to the daemon (required; stable across
	// its lease calls, shown by `campaignctl workers`).
	ID string
	// Job scopes leasing to one job id ("" leases from any job).
	Job string
	// Slots is the number of units executed concurrently (<= 0 is 1).
	Slots int
	// MaxBatch caps how many units one lease round-trip may grant
	// (?max=K on the lease endpoint). <= 0 lets the free-slot count
	// bound the batch — the worker never leases more than it can start
	// executing immediately.
	MaxBatch int
	// Wait bounds each lease long-poll (0 selects 30 s).
	Wait time.Duration
	// BackoffBase/BackoffMax shape the capped exponential retry backoff
	// for daemon connection errors (defaults 200 ms / 5 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Client overrides the HTTP client (nil builds one without a global
	// timeout — the long-poll outlives any sane fixed timeout; every
	// request carries a context deadline instead).
	Client *http.Client
	// Logf, if non-nil, receives worker lifecycle log lines.
	Logf func(format string, args ...any)
}

// Stats counts a worker's lifetime activity.
type Stats struct {
	// Leased counts granted units; Results the ones whose result the
	// daemon accepted; Failed the ones whose execution errored or whose
	// grant could not run (the error was posted, the daemon re-runs
	// them locally); Abandoned the ones dropped because the lease died
	// under us (410 on heartbeat or result); Released the ones handed
	// back on graceful shutdown, or because their grant named no job or
	// unit to post an error to.
	Leased, Results, Failed, Abandoned, Released int64
	// Batched counts the units among Leased that arrived through a
	// batched (?max=K, K > 1) lease response.
	Batched int64
}

// Worker is one remote campaign worker. Create with New, drive with
// Run; all methods are safe for concurrent use.
type Worker struct {
	opts   Options
	client *http.Client

	mu        sync.Mutex
	pipelines map[string]*core.Pipeline // by job fingerprint

	leased, results, failed, abandoned, released, batched atomic.Int64
}

// New validates the options and builds a worker.
func New(opts Options) (*Worker, error) {
	if opts.Base == "" {
		return nil, errors.New("worker: no daemon base URL")
	}
	if opts.ID == "" {
		return nil, errors.New("worker: no worker id")
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Wait <= 0 {
		opts.Wait = 30 * time.Second
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 200 * time.Millisecond
	}
	if opts.BackoffMax < opts.BackoffBase {
		opts.BackoffMax = 5 * time.Second
	}
	w := &Worker{opts: opts, client: opts.Client, pipelines: map[string]*core.Pipeline{}}
	if w.client == nil {
		w.client = &http.Client{}
	}
	return w, nil
}

// Stats snapshots the lifetime counters.
func (w *Worker) Stats() Stats {
	return Stats{
		Leased:    w.leased.Load(),
		Results:   w.results.Load(),
		Failed:    w.failed.Load(),
		Abandoned: w.abandoned.Load(),
		Released:  w.released.Load(),
		Batched:   w.batched.Load(),
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// backoff computes the capped exponential delay of the given retry
// attempt, jittered deterministically (FNV of worker id + attempt, so a
// fleet of workers desynchronises without any bare randomness): the
// delay lands in [d/2, d) for d = min(base << attempt, max).
func (w *Worker) backoff(attempt int) time.Duration {
	shift := attempt
	if shift > 16 {
		shift = 16
	}
	d := w.opts.BackoffBase << shift
	if d <= 0 || d > w.opts.BackoffMax {
		d = w.opts.BackoffMax
	}
	h := fnv.New64a()
	io.WriteString(h, w.opts.ID)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(attempt))
	h.Write(b[:])
	frac := h.Sum64() % 1024
	half := uint64(d) / 2
	return time.Duration(half + half*frac/1024)
}

// sleep waits d or until ctx cancels.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Run executes the lease loop until ctx cancels — the graceful-shutdown
// path: an in-flight unit's lease is released so the daemon re-queues
// it immediately instead of waiting out the TTL. Run returns nil on
// cancellation.
//
// One leaser goroutine long-polls on behalf of every slot, asking for
// as many units as it has free slots (?max=K); each granted unit runs
// on its own executor goroutine holding one slot token. A single-slot
// worker therefore makes exactly the requests the old per-slot loop
// did, while a wide worker fills all its slots in one round-trip.
func (w *Worker) Run(ctx context.Context) error {
	slots := w.opts.Slots
	sem := make(chan struct{}, slots)
	for i := 0; i < slots; i++ {
		sem <- struct{}{}
	}
	var wg sync.WaitGroup
	attempt := 0
	for ctx.Err() == nil {
		// Block until at least one slot is free, then sweep up the rest:
		// the batch bound is exactly the capacity we can start now.
		select {
		case <-sem:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		free := 1
	drain:
		for free < slots {
			select {
			case <-sem:
				free++
			default:
				break drain
			}
		}
		max := free
		if w.opts.MaxBatch > 0 && max > w.opts.MaxBatch {
			max = w.opts.MaxBatch
		}
		gs, err := w.leaseN(ctx, max)
		if err != nil {
			for i := 0; i < free; i++ {
				sem <- struct{}{}
			}
			if ctx.Err() != nil {
				break
			}
			// Daemon down or refusing: back off and retry forever — a
			// restarted daemon resumes its jobs from the checkpoint
			// store, and this worker should be parked on it when it
			// does.
			if attempt == 0 || attempt%10 == 9 {
				w.logf("lease: %v (retrying)", err)
			}
			sleep(ctx, w.backoff(attempt))
			attempt++
			continue
		}
		attempt = 0
		for i := len(gs); i < free; i++ {
			sem <- struct{}{} // slots the grant did not fill
		}
		for _, g := range gs {
			w.leased.Add(1)
			wg.Add(1)
			go func(g *jobserver.Grant) {
				defer wg.Done()
				defer func() { sem <- struct{}{} }()
				w.execute(ctx, g)
			}(g)
		}
	}
	wg.Wait()
	return nil
}

// leaseN long-polls for up to max grants: (nil, nil) means no work
// within the wait.
func (w *Worker) leaseN(ctx context.Context, max int) ([]*jobserver.Grant, error) {
	path := "/api/v1/lease"
	if w.opts.Job != "" {
		path = "/api/v1/jobs/" + url.PathEscape(w.opts.Job) + "/lease"
	}
	if max > 1 {
		path += "?max=" + strconv.Itoa(max)
	}
	body, _ := json.Marshal(jobserver.LeaseRequest{
		Worker:     w.opts.ID,
		WaitMillis: w.opts.Wait.Milliseconds(),
	})
	// Guard the request at double the server-side wait: a healthy
	// daemon answers 204 at the wait bound, so anything slower is a
	// dead connection.
	rctx, cancel := context.WithTimeout(ctx, 2*w.opts.Wait)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.opts.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		gs, err := decodeGrants(resp.Body, max)
		if err != nil {
			return nil, err
		}
		if max > 1 {
			w.batched.Add(int64(len(gs)))
		}
		return gs, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("worker: lease: %s", resp.Status)
	}
}

// decodeGrants decodes a lease response: a GrantBatch of one to max
// grants. A body that is not exactly one JSON value of that shape is an
// error before any unit starts (a surplus grant would have no slot to
// run in); whether each grant can run is checkGrant's question, asked
// per grant.
func decodeGrants(r io.Reader, max int) ([]*jobserver.Grant, error) {
	var b jobserver.GrantBatch
	if err := jobserver.DecodeBody(r, &b); err != nil {
		return nil, fmt.Errorf("worker: bad grant batch: %w", err)
	}
	if len(b.Grants) == 0 || len(b.Grants) > max {
		return nil, fmt.Errorf("worker: grant batch of %d for %d slots", len(b.Grants), max)
	}
	out := make([]*jobserver.Grant, len(b.Grants))
	for i := range b.Grants {
		out[i] = &b.Grants[i]
	}
	return out, nil
}

// checkGrant reports why a grant cannot run: it must name its lease,
// job, unit and DfT setting and carry a valid spec.
func checkGrant(g *jobserver.Grant) error {
	if g.Lease == "" || g.Job == "" || g.Key == "" || (g.DfT != "pre" && g.DfT != "post") {
		return errors.New("worker: grant lacks its lease, job, unit or DfT setting")
	}
	if err := g.Spec.Validate(); err != nil {
		return fmt.Errorf("worker: grant spec: %w", err)
	}
	return nil
}

// refuse hands back a grant that checkGrant rejected, so the daemon
// re-runs the unit locally at once instead of after the lease TTL: the
// error is posted as the unit's result where the grant names its job
// and unit, and the lease is released where it names only the lease.
func (w *Worker) refuse(ctx context.Context, g *jobserver.Grant, err error) {
	switch {
	case g.Lease == "":
		w.failed.Add(1)
		w.logf("failed grant %q: %v (no lease to hand back)", g.Key, err)
	case g.Job == "" || g.Key == "":
		w.release(g)
		w.released.Add(1)
		w.logf("released lease %s: %v", g.Lease, err)
	case w.postResult(ctx, g, &jobserver.ResultRequest{Lease: g.Lease, Error: err.Error()}):
		w.failed.Add(1)
		w.logf("failed %s: %v", g.Key, err)
	default:
		w.abandoned.Add(1)
		w.logf("abandoned %s (result refused)", g.Key)
	}
}

// pipeline returns (building and caching if needed) the pipeline of the
// grant's job. Pipelines cache per job fingerprint, so every unit of a
// job shares one engine pool, baseline cache and discovery cache — the
// same amortisation the daemon's local path enjoys.
func (w *Worker) pipeline(g *jobserver.Grant) *core.Pipeline {
	w.mu.Lock()
	defer w.mu.Unlock()
	p, ok := w.pipelines[g.Fingerprint]
	if !ok {
		p = core.NewPipeline(g.Spec.Config())
		w.pipelines[g.Fingerprint] = p
	}
	return p
}

// execute runs one granted unit: heartbeats at TTL/3 for its duration,
// executes the unit on the locally reconstructed pipeline, and posts
// the outcome. Cancellation of ctx (worker shutdown) releases the lease
// so the daemon re-queues the unit without waiting out the TTL.
func (w *Worker) execute(ctx context.Context, g *jobserver.Grant) {
	if err := checkGrant(g); err != nil {
		w.refuse(ctx, g, err)
		return
	}
	uctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat until the unit is fully posted; a 410 means the daemon
	// no longer considers the lease ours (expired, or the daemon
	// restarted and knows nothing of it) — abandon the unit mid-solve,
	// its result would be discarded anyway.
	var abandoned atomic.Bool
	hbDone := make(chan struct{})
	hbStop := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := time.Duration(g.TTLMillis) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-uctx.Done():
				return
			case <-t.C:
				if !w.heartbeat(uctx, g.Lease) {
					abandoned.Store(true)
					cancel()
					return
				}
			}
		}
	}()

	res, err := w.pipeline(g).ExecuteUnit(uctx, g.Key, g.DfT == "post")

	if ctx.Err() != nil && !abandoned.Load() {
		// Graceful shutdown mid-unit: hand the lease back so the unit
		// re-queues immediately.
		close(hbStop)
		<-hbDone
		w.release(g)
		w.released.Add(1)
		w.logf("released %s (shutdown)", g.Key)
		return
	}
	if abandoned.Load() {
		w.abandoned.Add(1)
		w.logf("abandoned %s (lease gone)", g.Key)
		return
	}

	var req jobserver.ResultRequest
	req.Lease = g.Lease
	if err != nil {
		req.Error = err.Error()
	} else if req.Result, err = json.Marshal(res); err != nil {
		req.Error = fmt.Sprintf("marshal result: %v", err)
	}
	accepted := w.postResult(uctx, g, &req)
	close(hbStop)
	<-hbDone
	switch {
	case !accepted:
		w.abandoned.Add(1)
		w.logf("abandoned %s (result refused)", g.Key)
	case req.Error != "":
		w.failed.Add(1)
		w.logf("failed %s: %s", g.Key, req.Error)
	default:
		w.results.Add(1)
		w.logf("completed %s", g.Key)
	}
}

// heartbeat renews the lease; false means the lease is gone.
func (w *Worker) heartbeat(ctx context.Context, leaseID string) bool {
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		w.opts.Base+"/api/v1/leases/"+url.PathEscape(leaseID)+"/heartbeat", nil)
	if err != nil {
		return true
	}
	resp, err := w.client.Do(req)
	if err != nil {
		// Connection trouble is not proof the lease is gone: keep
		// computing, keep trying. If the daemon really lost us, the TTL
		// expires server-side and the result post gets its 410.
		return true
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode != http.StatusGone
}

// release hands an unfinished lease back (best-effort, outside the
// worker's cancelled context).
func (w *Worker) release(g *jobserver.Grant) {
	rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodDelete,
		w.opts.Base+"/api/v1/leases/"+url.PathEscape(g.Lease), nil)
	if err != nil {
		return
	}
	if resp, err := w.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// postResult delivers the unit's outcome with bounded capped-backoff
// retries (transient daemon trouble must not discard a computed
// result). False means the daemon refused it — the lease is gone.
func (w *Worker) postResult(ctx context.Context, g *jobserver.Grant, res *jobserver.ResultRequest) bool {
	body, err := json.Marshal(res)
	if err != nil {
		return false
	}
	u := w.opts.Base + "/api/v1/jobs/" + url.PathEscape(g.Job) +
		"/units/" + url.PathEscape(g.Key) + "/result"
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			sleep(ctx, w.backoff(attempt))
		}
		if ctx.Err() != nil {
			return false
		}
		rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		req, rerr := http.NewRequestWithContext(rctx, http.MethodPost, u, bytes.NewReader(body))
		if rerr != nil {
			cancel()
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, derr := w.client.Do(req)
		cancel()
		if derr != nil {
			continue // daemon briefly away; the heartbeats keep the lease alive
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode/100 == 2:
			return true
		case resp.StatusCode == http.StatusGone:
			return false
		}
	}
	return false
}
