package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/jobserver"
)

// serviceWorkload drives an in-process job server (the campaignd core)
// over loopback HTTP: a closed loop of tenants, each submitting its jobs
// one after another and waiting for each result; then the server
// restarts over the same checkpoint store and every job is submitted
// again, so each is served from restored units.
type serviceWorkload struct {
	tenants, jobsPerTenant int
	// spec is job i's spec at the workload seed.
	spec func(seed int64, i int) core.JobSpec
}

// service is one running job server.
type service struct {
	srv    *jobserver.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// startService starts a job server over store, listening on loopback,
// and returns once it answers /healthz.
func startService(ctx context.Context, store campaign.Store) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := jobserver.New(jobserver.Options{Store: store})
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if _, err := s.call(ctx, http.MethodGet, "/healthz", nil, nil); err != nil {
		s.stop()
		return nil, fmt.Errorf("job server not ready: %w", err)
	}
	return s, nil
}

// stop shuts the HTTP listener and the job server down and waits for
// both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if jerr := s.srv.Shutdown(ctx); err == nil {
		err = jerr
	}
	return err
}

// call performs one API request and returns the response body, decoding
// it into out when out is non-nil. Any status but 200/201 is an error.
func (s *service) call(ctx context.Context, method, path string, body, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return data, nil
}

// jobOutcome is what one job submission produced.
type jobOutcome struct {
	result          []byte
	latency, submit float64 // seconds
	// units sums the job's unit counters (traced jobs only).
	units campaign.Progress
	err   error
}

// runJob submits spec and waits for its result bytes, recording a span
// per HTTP call under a job span. A traced job also reads the job's
// progress counters.
func (s *service) runJob(ctx context.Context, spec core.JobSpec, rec *recorder, parent *span) jobOutcome {
	js := rec.begin("service.job", "", parent)
	defer rec.end(js)
	t0 := time.Now()
	var sub jobserver.SubmitResponse
	sp := rec.begin("jobserver.submit", "", js)
	_, err := s.call(ctx, http.MethodPost, "/api/v1/jobs", spec, &sub)
	rec.end(sp)
	o := jobOutcome{submit: time.Since(t0).Seconds()}
	if err != nil {
		o.err = err
		return o
	}
	sp = rec.begin("jobserver.result", "", js)
	o.result, o.err = s.call(ctx, http.MethodGet, "/api/v1/jobs/"+sub.ID+"/result?wait=1", nil, nil)
	rec.end(sp)
	o.latency = time.Since(t0).Seconds()
	if o.err != nil || rec == nil {
		return o
	}
	var st jobserver.Status
	sp = rec.begin("jobserver.status", "", js)
	_, o.err = s.call(ctx, http.MethodGet, "/api/v1/jobs/"+sub.ID, nil, &st)
	rec.end(sp)
	for _, p := range st.Progress {
		o.units = addProgress(o.units, p)
	}
	return o
}

// addProgress sums two sets of unit counters.
func addProgress(a, b campaign.Progress) campaign.Progress {
	return campaign.Progress{Total: a.Total + b.Total, Completed: a.Completed + b.Completed,
		Restored: a.Restored + b.Restored, Failed: a.Failed + b.Failed}
}

// phase runs every job once: each tenant on its own goroutine (and trace
// thread), its jobs one after another.
func (w serviceWorkload) phase(ctx context.Context, s *service, seed int64, rec *recorder, parent *span) []jobOutcome {
	out := make([]jobOutcome, w.tenants*w.jobsPerTenant)
	var wg sync.WaitGroup
	for t := 0; t < w.tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			tenant := rec.begin("service.tenant", "", parent)
			if tenant != nil {
				tenant.tid = t + 2
			}
			for j := 0; j < w.jobsPerTenant; j++ {
				i := t*w.jobsPerTenant + j
				out[i] = s.runJob(ctx, w.spec(seed, i), rec, tenant)
			}
			rec.end(tenant)
		}(t)
	}
	wg.Wait()
	return out
}

func (w serviceWorkload) op(ctx context.Context, seed int64, env opEnv) (*opResult, error) {
	rec := env.rec
	dir, err := os.MkdirTemp(env.tmp, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store := campaign.DirStore{Dir: dir}

	m := startMeter()
	setup := rec.begin("bench.setup", "", nil)
	s, err := startService(ctx, store)
	rec.end(setup)
	if err != nil {
		return nil, err
	}
	r := &opResult{setup: m.setupDone()}

	root := rec.begin("bench.run", "", nil)
	fresh := w.phase(ctx, s, seed, rec, root)
	var ckpts []string
	if rec != nil {
		if ckpts, err = store.List(); err != nil {
			s.stop()
			return nil, err
		}
	}
	resume := rec.begin("jobserver.restart", "", root)
	resumeStart := time.Now()
	err = s.stop()
	if err == nil {
		s, err = startService(ctx, store)
	}
	rec.end(resume)
	if err != nil {
		return nil, fmt.Errorf("restart job server: %w", err)
	}
	resumed := w.phase(ctx, s, seed, rec, root)
	resumeS := time.Since(resumeStart).Seconds()
	rec.end(root)
	m.runDone(r)
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stop job server: %w", err)
	}

	h := sha256.New()
	var submitMS, resumeMS []float64
	var units campaign.Progress
	r.jobs = make([]float64, len(fresh))
	for i, f := range fresh {
		r.attempted += 2
		if f.err == nil {
			r.jobs[i] = f.latency
			submitMS = append(submitMS, f.submit*1e3)
			h.Write(f.result)
			h.Write([]byte{0})
		} else {
			r.failed++
			fmt.Fprintf(os.Stderr, "service: job %d: %v\n", i, f.err)
		}
		switch re := resumed[i]; {
		case re.err != nil:
			r.failed++
			fmt.Fprintf(os.Stderr, "service: resumed job %d: %v\n", i, re.err)
		case !bytes.Equal(re.result, f.result):
			r.failed++
			fmt.Fprintf(os.Stderr, "service: resumed job %d served other bytes than its first run\n", i)
		default:
			resumeMS = append(resumeMS, re.latency*1e3)
		}
		units = addProgress(addProgress(units, f.units), resumed[i].units)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	if rec != nil {
		rec.link()
		r.layers = serviceLayers(rec, root, units, resumeS, len(ckpts), submitMS, resumeMS)
	}
	return r, nil
}

// serviceLayers derives the per-layer metrics of one traced service
// operation. The pipeline layers run inside the server, out of the
// harness's reach, and read 0 here.
func serviceLayers(rec *recorder, root *span, units campaign.Progress, resumeS float64, ckpts int, submitMS, resumeMS []float64) map[string]float64 {
	l := map[string]float64{}
	for _, m := range perLayer {
		l[m.Name] = 0
	}
	l["campaign.units_completed"] = float64(units.Completed)
	l["campaign.units_restored"] = float64(units.Restored)
	l["campaign.units_failed"] = float64(units.Failed)
	l["campaign.resume_s"] = resumeS
	l["campaign.checkpoints"] = float64(ckpts)
	l["jobserver.submit_ms_p50"] = median(submitMS)
	l["jobserver.resume_job_ms_p50"] = median(resumeMS)
	// Coverage: the share of every tenant's time in the timed phase spent
	// inside an HTTP call or the restart.
	var inCalls, tenantTime float64
	for _, s := range rec.under(root) {
		switch s.name {
		case "service.tenant":
			tenantTime += s.dur().Seconds()
		case "jobserver.submit", "jobserver.result", "jobserver.status":
			inCalls += s.dur().Seconds()
		case "jobserver.restart":
			inCalls += s.dur().Seconds()
			tenantTime += s.dur().Seconds()
		}
	}
	if tenantTime > 0 {
		l["bench.self_time_coverage"] = inCalls / tenantTime
	}
	return l
}
