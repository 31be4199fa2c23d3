package jobserver

import (
	"context"
	"sort"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// State is a job's lifecycle state.
type State string

// The job states. A job is terminal in StateDone, StateFailed and
// StateCancelled; only the latter two restart on resubmission.
const (
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Event is one entry of a job's progress stream, serialised verbatim
// onto SSE and JSONL watchers.
type Event struct {
	// Type is "state", "progress", "result" or "span".
	Type string `json:"type"`
	// Job is the job id.
	Job string `json:"job"`
	// State accompanies "state" events.
	State State `json:"state,omitempty"`
	// Error carries the failure cause of a terminal "state" event.
	Error string `json:"error,omitempty"`
	// DfT labels the design-for-test setting ("pre"/"post") of
	// "progress" and "result" events.
	DfT string `json:"dft,omitempty"`
	// Progress accompanies "progress" events: the campaign's live unit
	// counters.
	Progress *campaign.Progress `json:"progress,omitempty"`
	// Span accompanies "span" events: one finished methodology-stage
	// span in the JSONL trace wire form, timed from the first span the
	// watcher saw.
	Span *obs.WireRecord `json:"span,omitempty"`

	// rec is the span a "span" event carries until the watcher's
	// handler times it into Span.
	rec obs.Record
}

// Status is a job's queryable summary (the GET /api/v1/jobs/{id} body).
type Status struct {
	ID          string                       `json:"id"`
	State       State                        `json:"state"`
	Error       string                       `json:"error,omitempty"`
	Spec        core.JobSpec                 `json:"spec"`
	Fingerprint string                       `json:"fingerprint"`
	Submits     int                          `json:"submits"`
	Progress    map[string]campaign.Progress `json:"progress,omitempty"`
	Results     []string                     `json:"results,omitempty"`
}

// Job is one deduplicated campaign run. All methods are safe for
// concurrent use; the zero value is not valid (jobs come from Submit).
type Job struct {
	id     string
	fp     string
	spec   core.JobSpec
	srv    *Server
	cancel context.CancelFunc

	// done closes when the job reaches a terminal state. Watchers and
	// result waiters select on it.
	done chan struct{}

	mu       sync.Mutex
	state    State
	errMsg   string
	submits  int
	progress map[string]campaign.Progress // latest counters per DfT label
	results  map[string][]byte            // report.JSON bytes per DfT label
	subs     map[chan Event]bool          // watcher → whether it takes spans
}

// newJob builds a job in StateRunning; the caller launches run().
func newJob(s *Server, id, fp string, spec core.JobSpec) *Job {
	return &Job{
		id:       id,
		fp:       fp,
		spec:     spec,
		srv:      s,
		done:     make(chan struct{}),
		state:    StateRunning,
		submits:  1,
		progress: map[string]campaign.Progress{},
		results:  map[string][]byte{},
		subs:     map[chan Event]bool{},
	}
}

// ID returns the job id (the hash of its fingerprint).
func (j *Job) ID() string { return j.id }

// Fingerprint returns the job-level configuration fingerprint.
func (j *Job) Fingerprint() string { return j.fp }

// Spec returns the submitted spec.
func (j *Job) Spec() core.JobSpec { return j.spec }

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State reads the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel aborts a live run (no-op once terminal).
func (j *Job) Cancel() { j.cancel() }

// noteSubmit counts a deduplicated submission.
func (j *Job) noteSubmit() {
	j.mu.Lock()
	j.submits++
	j.mu.Unlock()
}

// Status snapshots the job's queryable summary.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		Spec:        j.spec,
		Fingerprint: j.fp,
		Submits:     j.submits,
	}
	if len(j.progress) > 0 {
		st.Progress = make(map[string]campaign.Progress, len(j.progress))
		for k, v := range j.progress {
			st.Progress[k] = v
		}
	}
	for label := range j.results {
		st.Results = append(st.Results, label)
	}
	sort.Strings(st.Results)
	return st
}

// Result returns the stored report.JSON bytes of one DfT label. The
// bytes are exactly what `dotest -json` writes for the same
// configuration — watchers comparing against a CLI run compare raw.
func (j *Job) Result(label string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.results[label]
	return data, ok
}

// subscribe attaches a watcher: it returns the snapshot of the job's
// current state (a "state" event plus the latest "progress" and
// "result" event per DfT setting) and a channel tailing everything
// published afterwards. Snapshot and subscription are taken under one
// lock, so no event falls in the gap between them — a mid-run watcher
// sees snapshot-then-tail with nothing lost and nothing duplicated.
// Publishing never blocks: a watcher that stops draining has events
// dropped, and the terminal state is re-synthesised by the HTTP handler
// from job state, so a slow or disconnected client can neither stall
// nor cancel the run. A watcher subscribed without spans never has
// "span" events queued ahead of its progress.
func (j *Job) subscribe(buf int, spans bool) (snapshot []Event, ch chan Event, cancelSub func()) {
	if buf < 1 {
		buf = 1
	}
	ch = make(chan Event, buf)
	j.mu.Lock()
	defer j.mu.Unlock()
	snapshot = append(snapshot, Event{Type: "state", Job: j.id, State: j.state, Error: j.errMsg})
	for _, label := range orderedLabels(j.progress) {
		p := j.progress[label]
		snapshot = append(snapshot, Event{Type: "progress", Job: j.id, DfT: label, Progress: &p})
	}
	for _, label := range orderedLabels(j.results) {
		snapshot = append(snapshot, Event{Type: "result", Job: j.id, DfT: label})
	}
	j.subs[ch] = spans
	return snapshot, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// orderedLabels sorts map keys for deterministic snapshot order.
func orderedLabels[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// publish fans an event out to every subscriber without blocking;
// "span" events go only to the watchers that take spans.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for ch, spans := range j.subs {
		if ev.Type == "span" && !spans {
			continue
		}
		select {
		case ch <- ev:
		default:
		}
	}
}

// emitSpan is the run observer's span sink: it publishes a copy of the
// finished span, since a sink must not keep the record it is handed.
// With no watcher it costs one lock and allocates nothing.
func (j *Job) emitSpan(r *obs.Record) {
	j.publish(Event{Type: "span", Job: j.id, DfT: core.DfTLabel(r.DfT), rec: *r})
}

// setProgress records and publishes one progress tick.
func (j *Job) setProgress(label string, p campaign.Progress) {
	j.mu.Lock()
	j.progress[label] = p
	j.mu.Unlock()
	j.publish(Event{Type: "progress", Job: j.id, DfT: label, Progress: &p})
}

// setResult stores one DfT setting's result bytes.
func (j *Job) setResult(label string, data []byte) {
	j.mu.Lock()
	j.results[label] = data
	j.mu.Unlock()
	j.publish(Event{Type: "result", Job: j.id, DfT: label})
}

// finish moves the job to a terminal state and releases done.
func (j *Job) finish(state State, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.mu.Unlock()
	j.publish(Event{Type: "state", Job: j.id, State: state, Error: errMsg})
	close(j.done)
}

// workers resolves the per-job worker pool size. The pool may be wider
// than the global budget: the FairGate tenant admits each unit, so
// surplus workers just park at the gate and the budget is shared
// fairly across jobs.
func (j *Job) workers() int {
	if j.spec.Workers > 0 {
		return j.spec.Workers
	}
	return j.srv.opts.Budget
}

// run executes the campaign: one RunParallel per DfT setting of the
// spec, every unit admitted through the server's fair gate, checkpoints
// flowing through the server's Store under the per-DfT configuration
// fingerprint. Failure or cancellation of one setting is terminal for
// the whole job (the checkpoint keeps the finished units).
func (j *Job) run(ctx context.Context) {
	defer j.srv.wg.Done()
	tenant := j.srv.gate.Tenant()
	defer tenant.Close()

	cfg := j.spec.Config()
	for _, dft := range j.spec.DfTs() {
		label := core.DfTLabel(dft)
		p := core.NewPipeline(cfg)
		p.Obs = obs.New(obs.NewAgg(), obs.SinkFunc(j.emitSpan))
		// The good-space Monte Carlo stays on the local budget; only the
		// campaign pool gets the remote surplus below.
		p.Workers = j.workers()
		opts := campaign.Options{
			// Surplus workers beyond the local budget serve remote
			// leases: a unit picked by any worker is first offered to a
			// parked campaignw long-poll (no local slot held while it
			// runs remotely) and otherwise parks at the fair gate, so
			// connected workers add capacity without ever displacing
			// local throughput.
			Workers:     j.workers() + j.srv.remoteSlots(),
			Fingerprint: core.Fingerprint(cfg, dft),
			Store:       j.srv.opts.Store,
			Resume:      j.srv.opts.Store != nil,
			Gate:        tenant,
			OnProgress:  func(pr campaign.Progress) { j.setProgress(label, pr) },
		}
		if j.srv.disp != nil {
			opts.Executor = newRemoteExecutor(j.srv.disp, j, dft, p.Obs)
		}
		run, out, err := p.RunParallel(ctx, dft, opts)
		if err != nil {
			if ctx.Err() != nil {
				j.srv.logf("job %s: cancelled (%s): checkpoint flushed", j.id, label)
				j.finish(StateCancelled, err.Error())
			} else {
				j.srv.logf("job %s: failed (%s): %v", j.id, label, err)
				j.finish(StateFailed, err.Error())
			}
			return
		}
		data, jerr := report.JSON(run)
		if jerr != nil {
			j.finish(StateFailed, jerr.Error())
			return
		}
		j.setResult(label, data)
		if out != nil {
			j.srv.logf("job %s: %s done (%d units, %d restored)",
				j.id, label, out.Stats.Completed+out.Stats.Restored, out.Stats.Restored)
		}
	}
	j.finish(StateDone, "")
}
