package jobserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
)

// Handler returns the server's HTTP API:
//
//	POST   /api/v1/jobs              submit a core.JobSpec → job status
//	                                 (201 created, 200 deduped onto an
//	                                 existing run)
//	GET    /api/v1/jobs              list job statuses
//	GET    /api/v1/jobs/{id}         one job's status
//	DELETE /api/v1/jobs/{id}         cancel a live job
//	GET    /api/v1/jobs/{id}/events  progress stream: SSE by default,
//	                                 plain JSONL with ?format=jsonl;
//	                                 ?spans=0 drops per-stage span events
//	GET    /api/v1/jobs/{id}/result  result bytes of one DfT setting
//	                                 (?dft=pre|post, ?wait=1 blocks until
//	                                 the job is terminal)
//	GET    /api/v1/checkpoints       fingerprints held by the Store
//	GET    /api/v1/workers           remote-worker registry
//	GET    /healthz                  liveness
//
// plus the worker-facing lease protocol documented in leasehttp.go.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/checkpoints", s.handleCheckpoints)
	mux.HandleFunc("POST /api/v1/lease", s.handleLease)
	mux.HandleFunc("POST /api/v1/jobs/{id}/lease", s.handleLease)
	mux.HandleFunc("POST /api/v1/jobs/{id}/units/{key}/result", s.handleUnitResult)
	mux.HandleFunc("POST /api/v1/leases/{lease}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("DELETE /api/v1/leases/{lease}", s.handleRelease)
	mux.HandleFunc("GET /api/v1/workers", s.handleWorkers)
	return mux
}

// httpError is the JSON error body of every non-2xx response.
type httpError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(httpError{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// SubmitResponse is the POST /api/v1/jobs body: the job status plus
// whether the submission deduplicated onto an existing run.
type SubmitResponse struct {
	Status
	Deduped bool `json:"deduped"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec core.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	j, deduped, err := s.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusCreated
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{Status: j.Status(), Deduped: deduped})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	statuses := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		statuses = append(statuses, j.Status())
	}
	// Deterministic listing order: by id.
	for i := 1; i < len(statuses); i++ {
		for k := i; k > 0 && statuses[k].ID < statuses[k-1].ID; k-- {
			statuses[k], statuses[k-1] = statuses[k-1], statuses[k]
		}
	}
	writeJSON(w, http.StatusOK, statuses)
}

// jobFor resolves {id} or replies 404.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams the job's progress: first a snapshot of the
// current state (state, latest per-DfT progress, available results),
// then a live tail of everything published afterwards, closing with the
// terminal state. The terminal "state" event is always synthesised from
// job state after the run ends, so it survives any backpressure drops
// on the way. A client that disconnects just unsubscribes — publishing
// is non-blocking throughout, so a stalled watcher can never slow down
// or cancel the run it is watching.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	jsonl := r.URL.Query().Get("format") == "jsonl"
	withSpans := r.URL.Query().Get("spans") != "0"

	flusher, _ := w.(http.Flusher)
	if jsonl {
		w.Header().Set("Content-Type", "application/jsonl")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
	}
	w.WriteHeader(http.StatusOK)

	write := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if jsonl {
			_, err = fmt.Fprintf(w, "%s\n", data)
		} else {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	// A span watcher gets room for a burst of spans on top of the
	// progress events.
	buf := 64
	if withSpans {
		buf += 256
	}
	snapshot, events, cancelSub := j.subscribe(buf, withSpans)
	defer cancelSub()
	for _, ev := range snapshot {
		if !write(ev) {
			return
		}
	}
	// Span timestamps are relative to the first span this watcher sees —
	// the stream carries durations and ordering, not wall-clock state.
	var epoch time.Time
	// tail writes one published event and reports whether the stream
	// goes on: it ends on a write error or the terminal state.
	tail := func(ev Event) bool {
		if ev.Type == "span" {
			if epoch.IsZero() {
				epoch = ev.rec.Start
			}
			wire := ev.rec.Wire(epoch)
			ev.Span = &wire
		}
		return write(ev) && (ev.Type != "state" || ev.State == StateRunning)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-events:
			if !tail(ev) {
				return
			}
		case <-j.Done():
			// Drain whatever is already buffered, then close with the
			// authoritative terminal state (unless the drain already
			// delivered it — backpressure drops are what the synthesis
			// is for, not a second copy).
			for {
				select {
				case ev := <-events:
					if !tail(ev) {
						return
					}
					continue
				default:
				}
				break
			}
			st := j.Status()
			write(Event{Type: "state", Job: j.ID(), State: st.State, Error: st.Error})
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	label := r.URL.Query().Get("dft")
	if label == "" {
		if dfts := j.Spec().DfTs(); len(dfts) == 1 {
			label = core.DfTLabel(dfts[0])
		} else {
			writeError(w, http.StatusBadRequest, "job runs multiple DfT settings; pass ?dft=pre|post")
			return
		}
	}
	if label != "pre" && label != "post" {
		writeError(w, http.StatusBadRequest, "bad dft %q (want pre or post)", label)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			// The client disconnected mid-wait. Writing nothing is
			// deliberate: net/http discards writes after the request
			// context is canceled, so there is no one to address. The
			// wait itself is a bare two-channel select — no server lock
			// is held across it and no goroutine or subscription was
			// created for it — so an abandoned wait leaves no trace and
			// cannot stall the job, other waiters or event watchers.
			return
		}
	}
	data, ok := j.Result(label)
	if !ok {
		st := j.Status()
		if st.State == StateRunning {
			writeError(w, http.StatusConflict, "job %s still running; pass ?wait=1 to block", j.ID())
			return
		}
		writeError(w, http.StatusNotFound, "job %s has no %s result (state %s: %s)",
			j.ID(), label, st.State, st.Error)
		return
	}
	// The stored bytes are exactly what `dotest -json` writes for the
	// same configuration; serve them raw so clients can compare
	// byte-for-byte.
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleCheckpoints(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		writeJSON(w, http.StatusOK, []string{})
		return
	}
	fps, err := st.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "list checkpoints: %v", err)
		return
	}
	if fps == nil {
		fps = []string{}
	}
	writeJSON(w, http.StatusOK, fps)
}
