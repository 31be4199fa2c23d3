package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/jobserver"
)

// bodyTransport answers every request with 200 and a fixed body, and
// records each request's method and path.
type bodyTransport struct {
	body []byte
	reqs *[]string
}

func (b bodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	*b.reqs = append(*b.reqs, r.Method+" "+r.URL.EscapedPath())
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(b.body))}, nil
}

// wellFormed is the lease-body oracle: the body is one grant batch
// (json.Unmarshal accepts it) holding one to max grants.
func wellFormed(body []byte, max int) bool {
	var b jobserver.GrantBatch
	return json.Unmarshal(body, &b) == nil && len(b.Grants) > 0 && len(b.Grants) <= max
}

// runnable is the grant oracle: the grant names its lease, job, unit
// and DfT setting and carries a valid spec.
func runnable(g *jobserver.Grant) bool {
	return g.Lease != "" && g.Job != "" && g.Key != "" &&
		(g.DfT == "pre" || g.DfT == "post") && g.Spec.Validate() == nil
}

// fuzzLease serves body as the lease response to a worker's leaseN with
// the given batch bound. A malformed body must be an error that leaves
// the worker's counters untouched and sends nothing more; a well-formed
// one must come back grant for grant. Each grant that cannot run must
// be handed back — its error posted, or its lease released — without
// building a pipeline.
func fuzzLease(t *testing.T, body []byte, max int) {
	var reqs []string
	w, err := New(Options{Base: "http://daemon.invalid", ID: "fuzz",
		Client: &http.Client{Transport: bodyTransport{body, &reqs}}})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := w.leaseN(context.Background(), max)
	if !wellFormed(body, max) {
		if err == nil {
			t.Fatalf("malformed body %q accepted as %d grants", body, len(gs))
		}
		if st := w.Stats(); st != (Stats{}) || len(reqs) != 1 {
			t.Fatalf("malformed body %q moved the counters (%+v) or sent %q", body, st, reqs)
		}
		return
	}
	if err != nil {
		t.Fatalf("well-formed body %q refused: %v", body, err)
	}
	if max > 1 && w.Stats().Batched != int64(len(gs)) {
		t.Fatalf("batched = %d for %d grants", w.Stats().Batched, len(gs))
	}
	refused := 0
	for _, g := range gs {
		if (checkGrant(g) == nil) != runnable(g) {
			t.Fatalf("checkGrant(%+v) = %v", g, checkGrant(g))
		}
		if runnable(g) {
			continue
		}
		refused++
		reqs = reqs[:0]
		w.execute(context.Background(), g)
		want := "POST /api/v1/jobs/" + url.PathEscape(g.Job) + "/units/" + url.PathEscape(g.Key) + "/result"
		switch {
		case g.Lease == "":
			want = ""
		case g.Job == "" || g.Key == "":
			want = "DELETE /api/v1/leases/" + url.PathEscape(g.Lease)
		}
		if got := strings.Join(reqs, ","); got != want {
			t.Fatalf("grant %+v handed back as %q, want %q", g, got, want)
		}
	}
	if st := w.Stats(); st.Failed+st.Released != int64(refused) || st.Results+st.Abandoned != 0 {
		t.Fatalf("%d refused grants counted as %+v", refused, st)
	}
	if len(w.pipelines) != 0 {
		t.Fatalf("a refused grant built a pipeline")
	}
}

var grantSeeds = []string{
	`{"lease":"l-1","job":"j1","dft":"pre","key":"macro/ladder","fingerprint":"f","ttl_ms":30000,"spec":{"quick":true}}`,
	`{"lease":"l-1","job":"j1","dft":"post","key":"macro/ladder","spec":{"bits":6}}`,
	`{"lease":"l-1","job":"j1","dft":"pre","key":"macro/ladder","spec":{"bits":64}}`,
	`{"lease":"l-1","job":"j1","dft":"sideways","key":"k","spec":{}}`,
	`{"lease":"","job":"j1","dft":"pre","key":"k","spec":{}}`,
	`{"lease":"l-1","job":"j1","dft":"pre","key":"k","spec":{"seed":-1}}`,
	`{"lease":"l-1","job":"j1","dft":"pre","key":"k","spec":{}} trailing`,
	`{"grants":[]}`, `{"grants":null}`, `{"grants":[{"lease":"l-1"}]}`, `[]`, `null`, ``,
}

// FuzzGrant fuzzes one grant, served as a one-grant batch to a
// one-slot lease.
func FuzzGrant(f *testing.F) {
	for _, s := range grantSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, grant []byte) {
		fuzzLease(t, []byte(`{"grants":[`+string(grant)+`]}`), 1)
	})
}

// TestLeaseRefusesOversizedBatch: a batch holding more grants than the
// lease asked for is refused whole, before any unit starts.
func TestLeaseRefusesOversizedBatch(t *testing.T) {
	g := grantSeeds[0]
	for _, max := range []int{1, 2} {
		fuzzLease(t, []byte(`{"grants":[`+g+`,`+g+`,`+g+`]}`), max)
	}
}

func FuzzGrantBatch(f *testing.F) {
	for _, s := range grantSeeds {
		f.Add([]byte(`{"grants":[` + s + `]}`))
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { fuzzLease(t, body, 4) })
}
