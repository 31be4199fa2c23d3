package jobserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The lease-protocol fuzz targets post arbitrary bodies to the handlers
// in-process. A malformed body — anything json.Unmarshal rejects, or one
// missing a required field — must be answered 400 and leave the
// dispatcher exactly as it was; a well-formed one must act per the
// protocol. testdata/fuzz holds bodies recorded from a real daemon and
// worker round trip.

// fuzzServer is a remote-dispatch server with no jobs, shut down with
// the fuzz target.
func fuzzServer(f *testing.F) *Server {
	srv := New(Options{Budget: 1, LeaseTTL: time.Hour})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// idle reports whether the dispatcher holds no parked poll and no lease
// and worker reports no parked poll, and returns the number of
// registered workers.
func idle(d *dispatcher, worker string) (workers int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w, ok := d.workers[worker]; ok && w.waiting != 0 {
		return len(d.workers), false
	}
	return len(d.workers), len(d.waiters) == 0 && len(d.leases) == 0
}

func FuzzLeaseRequest(f *testing.F) {
	for _, body := range []string{
		`{"worker":"w1","wait_ms":30000}`, `{"worker":"w1"}`, `{}`, `{"worker":""}`,
		`{"worker":"w1"} {"worker":"w2"}`, `{"worker":"w1"}]`, `{"worker":7}`,
		`{"worker":"w1","wait_ms":-5}`, `{"worker":"w1","wait_ms":1e30}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(body))
	}
	srv := fuzzServer(f)
	h := srv.Handler()
	// The poll's own context is already cancelled, so a well-formed
	// request parks and departs at once instead of long-polling.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		var want LeaseRequest
		ok := json.Unmarshal(body, &want) == nil && want.Worker != ""
		before, _ := idle(srv.disp, want.Worker)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/api/v1/lease", bytes.NewReader(body)).WithContext(gone)
		h.ServeHTTP(rec, req)
		after, quiet := idle(srv.disp, want.Worker)
		if !quiet {
			t.Fatalf("body %q left a parked poll or a lease behind", body)
		}
		switch {
		case !ok && rec.Code != http.StatusBadRequest:
			t.Fatalf("malformed body %q answered %d, want 400", body, rec.Code)
		case !ok && after != before:
			t.Fatalf("malformed body %q registered a worker", body)
		case ok && rec.Code == http.StatusBadRequest:
			t.Fatalf("well-formed body %q refused: %s", body, rec.Body)
		}
	})
}

// grantOne parks a poll for worker and offers it the unit (job, key):
// the dispatcher's own path to an active lease.
func grantOne(t *testing.T, d *dispatcher, worker, job, key string) *lease {
	t.Helper()
	got := make(chan []*lease, 1)
	go func() {
		ls, _ := d.parkN(context.Background(), worker, "", time.Minute, 1)
		got <- ls
	}()
	for {
		if l := d.offer(job, "pre", key); l != nil {
			<-got
			return l
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func FuzzUnitResult(f *testing.F) {
	for _, body := range []string{
		`{"lease":"l-1","result":{"Name":"ladder","Count":1}}`, `{"lease":"l-1","error":"boom"}`,
		`{"lease":"l-9","result":1}`, `{"lease":"l-1"}`, `{"result":1}`, `{"lease":"","error":"x"}`,
		`{"lease":"l-1","result":1} {"lease":"l-1","result":2}`, `{"lease":"l-1","result":}`,
		`{"lease":"l-1","result":null}`, `{"lease":"l-1","error":""}`, `null`, ``,
	} {
		f.Add([]byte(body))
	}
	srv := fuzzServer(f)
	h := srv.Handler()
	const job, key = "j1", "u1"
	var l *lease
	f.Fuzz(func(t *testing.T, body []byte) {
		if l == nil {
			l = grantOne(t, srv.disp, "fuzz", job, key)
		}
		var want ResultRequest
		ok := json.Unmarshal(body, &want) == nil && want.Lease != "" &&
			(want.Error != "" || len(want.Result) != 0)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/api/v1/jobs/"+job+"/units/"+key+"/result", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		switch {
		case !ok:
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("malformed body %q answered %d, want 400", body, rec.Code)
			}
		case want.Lease != l.id:
			if rec.Code != http.StatusGone {
				t.Fatalf("result for unknown lease %q answered %d, want 410", want.Lease, rec.Code)
			}
		default:
			if rec.Code != http.StatusNoContent {
				t.Fatalf("result for the live lease answered %d, want 204: %s", rec.Code, rec.Body)
			}
			res := <-l.result
			if res.errMsg != want.Error || !bytes.Equal(res.raw, want.Result) {
				t.Fatalf("delivered %q / %q, posted %q / %q", res.raw, res.errMsg, want.Result, want.Error)
			}
			if srv.disp.heartbeat(l.id) {
				t.Fatal("a completed lease still heartbeats")
			}
			l = nil
			return
		}
		// Refused: the lease still owns the unit and has received nothing.
		if !srv.disp.heartbeat(l.id) {
			t.Fatalf("body %q killed the live lease", body)
		}
		if len(l.result) != 0 {
			t.Fatalf("body %q delivered a result through a refused post", body)
		}
	})
}
