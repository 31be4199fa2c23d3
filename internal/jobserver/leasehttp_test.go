package jobserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestUnitResultNullIsNoPayload: a result post whose payload is JSON
// null carries nothing to merge, so it is refused like a missing one
// and the lease keeps its unit.
func TestUnitResultNullIsNoPayload(t *testing.T) {
	srv, hs := newTestServer(t, Options{Budget: 1, LeaseTTL: time.Hour})
	l := grantOne(t, srv.disp, "w1", "j1", "u1")
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+"/api/v1/jobs/j1/units/u1/result", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"lease":"` + l.id + `","result":null}`); code != http.StatusBadRequest {
		t.Fatalf("null result answered %d, want 400", code)
	}
	if !srv.disp.heartbeat(l.id) || len(l.result) != 0 {
		t.Fatal("a refused null result ended the lease or delivered a result")
	}
	if code := post(`{"lease":"` + l.id + `","result":{"Name":"ladder"}}`); code != http.StatusNoContent {
		t.Fatalf("real result answered %d, want 204", code)
	}
}

// TestWorkerRegistryDropsDepartedWorkers: with a short lease TTL and
// many one-off worker ids, the registry and GET /api/v1/workers shrink
// back to the live workers — one holding a lease, one parked in a
// poll, and the one whose call sweeps — once the others have gone
// unseen for longer than the TTL.
func TestWorkerRegistryDropsDepartedWorkers(t *testing.T) {
	const ttl = 200 * time.Millisecond
	srv, hs := newTestServer(t, Options{Budget: 1, LeaseTTL: ttl})
	d := srv.disp

	// The holder has stopped heartbeating, but its lease has not yet
	// expired: stopping the timer holds the lease open for the test.
	holder := grantOne(t, d, "holder", "j1", "u1")
	d.mu.Lock()
	holder.timer.Stop()
	open := holder.state == leaseActive
	d.mu.Unlock()
	if !open {
		t.Fatal("the lease expired before the test could hold it open")
	}

	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		d.parkN(ctx, "parked", "", time.Minute, 1)
	}()
	t.Cleanup(func() { cancel(); <-parked })
	for {
		d.mu.Lock()
		w, ok := d.workers["parked"]
		waiting := ok && w.waiting > 0
		d.mu.Unlock()
		if waiting {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Many one-off workers, each a lease call that departs at once.
	gone, stop := context.WithCancel(context.Background())
	stop()
	h := srv.Handler()
	poll := func(id string) {
		body := fmt.Sprintf(`{"worker":%q}`, id)
		req := httptest.NewRequest(http.MethodPost, "/api/v1/lease", strings.NewReader(body)).WithContext(gone)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	for i := 0; i < 1000; i++ {
		poll(fmt.Sprintf("w%04d", i))
	}

	time.Sleep(3 * ttl)
	poll("fresh")

	want := []string{"fresh", "holder", "parked"}
	d.mu.Lock()
	var ids []string
	for id := range d.workers {
		ids = append(ids, id)
	}
	d.mu.Unlock()
	sort.Strings(ids)
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("registry holds %d workers %v…, want %v", len(ids), ids[:min(len(ids), 5)], want)
	}

	resp, err := http.Get(hs.URL + "/api/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ws []WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		t.Fatal(err)
	}
	ids = ids[:0]
	for _, w := range ws {
		ids = append(ids, w.ID)
	}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("GET /api/v1/workers lists %v, want %v", ids, want)
	}
	if fmt.Sprint(ws[1].Units) != "[u1]" {
		t.Fatalf("holder row lost its lease: %+v", ws[1])
	}
}
