package jobserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
)

// DefaultLeaseTTL is the lease lifetime when Options.LeaseTTL is zero.
// Workers heartbeat at a third of the TTL, so a worker must miss three
// consecutive heartbeats before its unit is re-queued locally.
const DefaultLeaseTTL = 30 * time.Second

// DefaultRemoteSlots is the surplus engine-worker count reserved for
// remote dispatch when Options.RemoteSlots is zero. Surplus goroutines
// cost nothing while no worker is connected: the executor declines
// instantly and they park at the fair gate behind the local budget.
const DefaultRemoteSlots = 16

// ErrShuttingDown wakes parked lease waiters when the server stops.
var ErrShuttingDown = errors.New("jobserver: shutting down")

// lease is one granted unit: a worker owns the unit's execution until
// it posts a result, releases the lease, or the TTL expires without a
// heartbeat. Exactly one of result-delivery and expiry happens; the
// granting executor blocks on whichever comes first.
type lease struct {
	id     string
	worker string
	jobID  string
	dft    string
	key    string

	deadline time.Time
	timer    *time.Timer

	// result delivers the worker's outcome (buffered; sent at most
	// once); expired closes when the lease dies without one.
	result  chan leaseResult
	expired chan struct{}
	state   leaseState
}

type leaseState int

const (
	leaseActive leaseState = iota
	leaseDone
	leaseExpired
)

// leaseResult is a worker's posted outcome: the marshalled unit result,
// or the error that kept it from producing one.
type leaseResult struct {
	raw    json.RawMessage
	errMsg string
}

// Grant is the wire form of a granted lease (the POST .../lease body on
// success): everything a worker needs to execute the unit from scratch
// — the full job spec plus the unit key and DfT setting.
type Grant struct {
	Lease       string       `json:"lease"`
	Job         string       `json:"job"`
	DfT         string       `json:"dft"`
	Key         string       `json:"key"`
	Fingerprint string       `json:"fingerprint"`
	TTLMillis   int64        `json:"ttl_ms"`
	Spec        core.JobSpec `json:"spec"`
}

// GrantBatch is the wire form of a batched lease response (?max=K for
// K > 1): up to K independent grants collected into one round-trip.
// Each grant is its own lease — heartbeats, results and expiry stay
// strictly per-unit.
type GrantBatch struct {
	Grants []Grant `json:"grants"`
}

// WorkerStatus is one worker's row in GET /api/v1/workers.
type WorkerStatus struct {
	ID string `json:"id"`
	// Units lists the unit keys the worker currently holds leases on.
	Units []string `json:"units"`
	// LastSeenMillis is how long ago the worker last talked to the
	// daemon (lease call, heartbeat, or result).
	LastSeenMillis int64 `json:"last_seen_ms"`
	// Waiting reports a parked lease long-poll — a connected, idle
	// worker.
	Waiting bool `json:"waiting"`
	// Lifetime totals.
	Leased  int64 `json:"leased"`
	Results int64 `json:"results"`
	Expired int64 `json:"expired"`
}

// workerInfo is the dispatcher's per-worker bookkeeping.
type workerInfo struct {
	id       string
	lastSeen time.Time
	active   map[string]*lease // lease id → lease
	waiting  int               // parked long-polls
	leased   int64
	results  int64
	expired  int64
}

// waiter is one parked lease long-poll. cap is its remaining grant
// capacity: a batched poll (?max=K) parks with cap K and keeps
// absorbing offers until the capacity is spent or the poll departs.
type waiter struct {
	worker string
	jobID  string // "" leases from any job
	cap    int
	grant  chan *lease
}

// batchLinger is how long a batched poll stays parked after its first
// grant, collecting further offers into the same round-trip. Short on
// purpose: the first unit's lease clock is already running, and a
// worker with spare capacity re-parks immediately anyway.
const batchLinger = 15 * time.Millisecond

// dispatcher matches campaign units to parked worker long-polls and
// tracks the resulting leases. Dispatch is pull-model: a unit is
// offered to remote execution only when a worker is already parked
// waiting for one — otherwise the executor declines instantly and the
// unit runs locally. Workers therefore never queue work they are not
// ready to execute, and an idle daemon costs the workers one parked
// request each.
type dispatcher struct {
	ttl  time.Duration
	base context.Context // server base: wakes parked waiters on shutdown
	logf func(format string, args ...any)

	mu      sync.Mutex
	seq     int64
	waiters []*waiter // FIFO
	leases  map[string]*lease
	workers map[string]*workerInfo
	// swept is when worker last dropped the rows of departed workers.
	swept time.Time
}

func newDispatcher(base context.Context, ttl time.Duration, logf func(string, ...any)) *dispatcher {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &dispatcher{
		ttl:     ttl,
		base:    base,
		logf:    logf,
		leases:  map[string]*lease{},
		workers: map[string]*workerInfo{},
	}
}

// worker returns (creating if needed) the bookkeeping row of id, and
// stamps it seen. At most once per TTL it first drops the rows of
// departed workers: no active lease, no parked poll, and unseen for
// longer than the TTL. Callers hold d.mu.
func (d *dispatcher) worker(id string) *workerInfo {
	now := time.Now()
	if now.Sub(d.swept) > d.ttl {
		d.swept = now
		for wid, w := range d.workers {
			if len(w.active) == 0 && w.waiting == 0 && now.Sub(w.lastSeen) > d.ttl {
				delete(d.workers, wid)
			}
		}
	}
	w, ok := d.workers[id]
	if !ok {
		w = &workerInfo{id: id, active: map[string]*lease{}}
		d.workers[id] = w
	}
	w.lastSeen = now
	return w
}

// parkN blocks until at least one unit is granted to workerID
// (filtered to jobID when non-empty), the wait elapses (nil slice), or
// the server shuts down (ErrShuttingDown). ctx is the HTTP request's —
// a disconnected worker stops waiting immediately. With max > 1 the
// poll lingers briefly after its first grant, batching up to max units
// into one round-trip; per-unit lease semantics (TTL, heartbeat,
// result) are untouched by the grouping.
func (d *dispatcher) parkN(ctx context.Context, workerID, jobID string, wait time.Duration, max int) ([]*lease, error) {
	if max < 1 {
		max = 1
	}
	w := &waiter{worker: workerID, jobID: jobID, cap: max, grant: make(chan *lease, max)}
	d.mu.Lock()
	if d.base.Err() != nil {
		d.mu.Unlock()
		return nil, ErrShuttingDown
	}
	d.worker(workerID).waiting++
	d.waiters = append(d.waiters, w)
	d.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	var granted []*lease
	var err error
	select {
	case l := <-w.grant:
		granted = append(granted, l)
	case <-timer.C:
	case <-ctx.Done():
		err = ctx.Err()
	case <-d.base.Done():
		err = ErrShuttingDown
	}
	if len(granted) > 0 && max > 1 {
		linger := time.NewTimer(batchLinger)
	collect:
		for len(granted) < max {
			select {
			case l := <-w.grant:
				granted = append(granted, l)
			case <-linger.C:
				break collect
			case <-ctx.Done():
				err = ctx.Err()
				break collect
			case <-d.base.Done():
				break collect
			}
		}
		linger.Stop()
	}

	// Depart under the lock: zeroing the capacity stops further offers
	// (they send holding d.mu), so the post-unlock drain collects every
	// grant that raced in — the set is complete and final.
	d.mu.Lock()
	w.cap = 0
	for i, pw := range d.waiters {
		if pw == w {
			d.waiters = append(d.waiters[:i], d.waiters[i+1:]...)
			break
		}
	}
	if wi, ok := d.workers[workerID]; ok {
		wi.waiting--
		wi.lastSeen = time.Now()
	}
	d.mu.Unlock()
	for {
		select {
		case l := <-w.grant:
			granted = append(granted, l)
			continue
		default:
		}
		break
	}
	if err != nil {
		// Disconnected or shutting down: no one is left to answer, so
		// raced-in grants expire and their units re-run locally.
		for _, l := range granted {
			d.expire(l, "granted to a departed waiter")
		}
		return nil, err
	}
	if len(granted) == 0 {
		return nil, nil
	}
	return granted, nil
}

// offer hands the unit to a parked waiter, returning the granted lease
// — or nil when no compatible waiter is parked, which tells the
// executor to run the unit locally. The lease's TTL timer starts now;
// heartbeats renew it. A batched waiter keeps its place in the FIFO
// until its capacity is spent, so consecutive offers group onto one
// round-trip.
func (d *dispatcher) offer(jobID, dft, key string) *lease {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, w := range d.waiters {
		if w.jobID != "" && w.jobID != jobID {
			continue
		}
		if w.cap <= 0 {
			continue
		}
		w.cap--
		if w.cap == 0 {
			d.waiters = append(d.waiters[:i], d.waiters[i+1:]...)
		}
		d.seq++
		l := &lease{
			id:       fmt.Sprintf("l-%d", d.seq),
			worker:   w.worker,
			jobID:    jobID,
			dft:      dft,
			key:      key,
			deadline: time.Now().Add(d.ttl),
			result:   make(chan leaseResult, 1),
			expired:  make(chan struct{}),
		}
		l.timer = time.AfterFunc(d.ttl, func() { d.expireIfOverdue(l) })
		d.leases[l.id] = l
		wi := d.worker(w.worker)
		wi.active[l.id] = l
		wi.leased++
		w.grant <- l // buffered: the waiter collects it even if departing
		return l
	}
	return nil
}

// expireIfOverdue is the TTL timer body: it re-checks the deadline
// under the lock, because a heartbeat may have renewed the lease after
// the timer fired but before it ran.
func (d *dispatcher) expireIfOverdue(l *lease) {
	d.mu.Lock()
	if l.state != leaseActive || time.Now().Before(l.deadline) {
		d.mu.Unlock()
		return
	}
	d.finish(l, leaseExpired)
	d.mu.Unlock()
	if d.logf != nil {
		d.logf("lease %s (%s on %s): expired, unit re-queued locally", l.id, l.key, l.worker)
	}
}

// expire kills a lease from the daemon side (job cancelled, waiter
// departed). Idempotent.
func (d *dispatcher) expire(l *lease, why string) {
	d.mu.Lock()
	active := l.state == leaseActive
	if active {
		d.finish(l, leaseExpired)
	}
	d.mu.Unlock()
	if active && d.logf != nil {
		d.logf("lease %s (%s on %s): %s", l.id, l.key, l.worker, why)
	}
}

// finish moves an active lease to its terminal state. Callers hold
// d.mu and have checked state == leaseActive.
func (d *dispatcher) finish(l *lease, st leaseState) {
	l.state = st
	if l.timer != nil {
		l.timer.Stop()
	}
	delete(d.leases, l.id)
	if wi, ok := d.workers[l.worker]; ok {
		delete(wi.active, l.id)
		switch st {
		case leaseExpired:
			wi.expired++
		case leaseDone:
			wi.results++
		}
	}
	if st == leaseExpired {
		close(l.expired)
	}
}

// heartbeat renews a lease's TTL. False means the lease is gone —
// expired, completed, or never existed — and the worker should abandon
// the unit: its result would be discarded anyway.
func (d *dispatcher) heartbeat(leaseID string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok || l.state != leaseActive {
		return false
	}
	l.deadline = time.Now().Add(d.ttl)
	l.timer.Reset(d.ttl)
	if wi, ok := d.workers[l.worker]; ok {
		wi.lastSeen = time.Now()
	}
	return true
}

// release is a worker's graceful hand-back of an unfinished lease
// (shutdown mid-unit): the unit re-queues locally exactly as if the
// lease had expired, just without waiting out the TTL. Idempotent —
// releasing a finished or unknown lease is a no-op.
func (d *dispatcher) release(leaseID string) {
	d.mu.Lock()
	l, ok := d.leases[leaseID]
	if ok && l.state == leaseActive {
		d.finish(l, leaseExpired)
	}
	d.mu.Unlock()
}

// postResult delivers a worker's outcome for its leased unit. False
// means the lease no longer owns the unit (expired and re-run locally,
// job cancelled, or already completed) — the result is discarded, which
// is what keeps a slow worker from double-merging a unit the daemon
// already re-ran.
func (d *dispatcher) postResult(leaseID, jobID, key string, res leaseResult) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok || l.state != leaseActive || l.jobID != jobID || l.key != key {
		return false
	}
	d.finish(l, leaseDone)
	if wi, ok := d.workers[l.worker]; ok {
		wi.lastSeen = time.Now()
	}
	l.result <- res // buffered: the executor is the only receiver
	return true
}

// WorkerStatuses snapshots the worker registry, sorted by id.
func (d *dispatcher) WorkerStatuses() []WorkerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	out := make([]WorkerStatus, 0, len(d.workers))
	for _, wi := range d.workers {
		ws := WorkerStatus{
			ID:             wi.id,
			LastSeenMillis: now.Sub(wi.lastSeen).Milliseconds(),
			Waiting:        wi.waiting > 0,
			Leased:         wi.leased,
			Results:        wi.results,
			Expired:        wi.expired,
		}
		for _, l := range wi.active {
			ws.Units = append(ws.Units, l.key)
		}
		sort.Strings(ws.Units)
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// remoteExecutor is the campaign.Executor of one (job, DfT) run: it
// offers each unit to a parked worker and blocks — outside the fair
// gate, so remote units consume no local slot — until the worker's
// result arrives or the lease dies. Units are only ever remote when a
// worker is ready for them; everything else declines instantly into
// the local path, so remote capacity is strictly additive.
type remoteExecutor struct {
	d    *dispatcher
	job  *Job
	dft  string
	dftB bool
	o    *obs.Observer

	mu       sync.Mutex
	poisoned map[string]struct{}
}

func newRemoteExecutor(d *dispatcher, j *Job, dft bool, o *obs.Observer) *remoteExecutor {
	return &remoteExecutor{
		d: d, job: j, dft: core.DfTLabel(dft), dftB: dft, o: o,
		poisoned: map[string]struct{}{},
	}
}

// Execute implements campaign.Executor.
func (x *remoteExecutor) Execute(ctx context.Context, u campaign.Unit) (json.RawMessage, bool, error) {
	x.mu.Lock()
	_, bad := x.poisoned[u.Key]
	x.mu.Unlock()
	if bad {
		return nil, false, nil // failed remotely once: run it locally
	}
	l := x.d.offer(x.job.ID(), x.dft, u.Key)
	if l == nil {
		return nil, false, nil // no worker parked: run it locally
	}
	met := &obs.Metrics{}
	met.Add(obs.CtrUnitsLeased, 1)
	sp := x.o.Start(obs.StageRemote, u.Group, u.Key, x.dftB, met)
	defer sp.End()
	select {
	case res := <-l.result:
		if res.errMsg != "" {
			met.Add(obs.CtrRemoteRetries, 1)
			x.mu.Lock()
			x.poisoned[u.Key] = struct{}{}
			x.mu.Unlock()
			return nil, false, fmt.Errorf("jobserver: worker %s failed unit %s: %s", l.worker, u.Key, res.errMsg)
		}
		met.Add(obs.CtrRemoteResults, 1)
		return res.raw, true, nil
	case <-l.expired:
		met.Add(obs.CtrLeasesExpired, 1)
		return nil, false, nil // dead worker: the unit re-runs locally, now
	case <-ctx.Done():
		x.d.expire(l, "job context cancelled")
		return nil, false, ctx.Err()
	}
}
