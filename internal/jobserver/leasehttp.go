package jobserver

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Lease-protocol HTTP surface. The worker-facing half of the API:
//
//	POST   /api/v1/lease[?max=K]                  lease the next unit(s)
//	                                              of any job (long-poll;
//	                                              up to K grants)
//	POST   /api/v1/jobs/{id}/lease[?max=K]        lease from one job
//	POST   /api/v1/jobs/{id}/units/{key}/result   post a leased unit's
//	                                              outcome
//	POST   /api/v1/leases/{lease}/heartbeat       renew a lease's TTL
//	DELETE /api/v1/leases/{lease}                 release an unfinished
//	                                              lease (graceful stop)
//	GET    /api/v1/workers                        worker registry
//
// Idempotency rule: every worker-side operation on a lease the daemon
// no longer considers active — expired, completed, job cancelled, or
// never granted — answers 410 Gone (release answers 204: releasing a
// dead lease is the desired state). A worker that sees 410 abandons the
// unit; the daemon has already re-queued it locally, so the unit is
// never lost and never merged twice.

// LeaseRequest is the POST .../lease body.
type LeaseRequest struct {
	// Worker identifies the worker (stable across its lease calls).
	Worker string `json:"worker"`
	// WaitMillis bounds the long-poll (0 selects 30 s; capped at 5 min).
	WaitMillis int64 `json:"wait_ms"`
}

// ResultRequest is the POST .../units/{key}/result body: the lease that
// owns the unit plus either the marshalled result or the error that
// kept the worker from producing one.
type ResultRequest struct {
	Lease string `json:"lease"`
	// Result is the unit's marshalled value — the exact bytes
	// core.ExecuteUnit's result marshals to, merged daemon-side through
	// the restored-unit decode path. A JSON null is no payload.
	Result json.RawMessage `json:"result,omitempty"`
	// Error reports a failed unit; the daemon re-runs it locally.
	Error string `json:"error,omitempty"`
}

// DecodeBody decodes a lease-protocol body, sent by either side:
// exactly one JSON value. Data after it makes the body malformed, like
// any other syntax error, instead of being ignored.
func DecodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// maxLeaseBatch caps the ?max=K grant batching: far beyond any sane
// per-worker concurrency, small enough that one response body stays
// cheap to build and parse.
const maxLeaseBatch = 64

// handleLease is the long-poll: park until a unit is granted, the wait
// elapses (204), or the server shuts down (503). With an {id} path
// segment the lease is scoped to that job. The answer is always a
// GrantBatch ({"grants":[...]}) of up to ?max=K grants (default 1).
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if s.disp == nil {
		writeError(w, http.StatusServiceUnavailable, "remote dispatch is disabled")
		return
	}
	var req LeaseRequest
	if err := DecodeBody(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad lease request: %v", err)
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "lease request names no worker")
		return
	}
	jobID := r.PathValue("id")
	if jobID != "" {
		if _, ok := s.Job(jobID); !ok {
			writeError(w, http.StatusNotFound, "no job %q", jobID)
			return
		}
	}
	max := 1
	if ms := r.URL.Query().Get("max"); ms != "" {
		v, err := strconv.Atoi(ms)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad max %q", ms)
			return
		}
		max = v
		if max > maxLeaseBatch {
			max = maxLeaseBatch
		}
	}
	wait := time.Duration(req.WaitMillis) * time.Millisecond
	if wait <= 0 {
		wait = 30 * time.Second
	}
	if wait > 5*time.Minute {
		wait = 5 * time.Minute
	}
	leases, err := s.disp.parkN(r.Context(), req.Worker, jobID, wait, max)
	switch {
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		return // worker disconnected mid-poll; no one to answer
	case len(leases) == 0:
		w.WriteHeader(http.StatusNoContent) // no work within the wait
		return
	}
	grants := make([]Grant, 0, len(leases))
	for _, l := range leases {
		j, ok := s.Job(l.jobID)
		if !ok { // unreachable: jobs outlive their leases
			s.disp.expire(l, "job vanished")
			continue
		}
		grants = append(grants, Grant{
			Lease:       l.id,
			Job:         l.jobID,
			DfT:         l.dft,
			Key:         l.key,
			Fingerprint: j.Fingerprint(),
			TTLMillis:   s.disp.ttl.Milliseconds(),
			Spec:        j.Spec(),
		})
	}
	if len(grants) == 0 {
		writeError(w, http.StatusInternalServerError, "jobs vanished under %d leases", len(leases))
		return
	}
	writeJSON(w, http.StatusOK, GrantBatch{Grants: grants})
}

// handleUnitResult accepts a leased unit's outcome. 410 Gone means the
// lease no longer owns the unit — the daemon discarded the payload.
func (s *Server) handleUnitResult(w http.ResponseWriter, r *http.Request) {
	if s.disp == nil {
		writeError(w, http.StatusServiceUnavailable, "remote dispatch is disabled")
		return
	}
	var req ResultRequest
	if err := DecodeBody(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad result: %v", err)
		return
	}
	if req.Lease == "" {
		writeError(w, http.StatusBadRequest, "result names no lease")
		return
	}
	if req.Error == "" && (len(req.Result) == 0 || string(req.Result) == "null") {
		writeError(w, http.StatusBadRequest, "result carries neither payload nor error")
		return
	}
	ok := s.disp.postResult(req.Lease, r.PathValue("id"), r.PathValue("key"),
		leaseResult{raw: req.Result, errMsg: req.Error})
	if !ok {
		writeError(w, http.StatusGone, "lease %s no longer owns unit %s", req.Lease, r.PathValue("key"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHeartbeat renews a lease (410 when it is gone — the worker
// should abandon the unit).
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if s.disp == nil {
		writeError(w, http.StatusServiceUnavailable, "remote dispatch is disabled")
		return
	}
	if !s.disp.heartbeat(r.PathValue("lease")) {
		writeError(w, http.StatusGone, "lease %s is gone", r.PathValue("lease"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRelease hands an unfinished lease back (idempotent 204).
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	if s.disp == nil {
		writeError(w, http.StatusServiceUnavailable, "remote dispatch is disabled")
		return
	}
	s.disp.release(r.PathValue("lease"))
	w.WriteHeader(http.StatusNoContent)
}

// handleWorkers lists the worker registry. A worker's row is dropped
// once it holds no lease and no parked poll and has gone unseen for
// longer than the lease TTL.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.disp == nil {
		writeJSON(w, http.StatusOK, []WorkerStatus{})
		return
	}
	ws := s.disp.WorkerStatuses()
	if ws == nil {
		ws = []WorkerStatus{}
	}
	writeJSON(w, http.StatusOK, ws)
}
