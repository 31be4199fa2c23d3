// Command campaignd serves the defect-oriented test methodology as a
// multi-tenant campaign job server. Clients POST a job spec (the JSON
// mirror of the dotest CLI flags) and get back a job id;
// progress streams as SSE or JSONL; results are the exact bytes
// `dotest -json` writes for the same parameters. Identical submissions
// dedup into a single run, concurrent jobs share a bounded global
// worker budget fairly, and with -store the checkpoints survive daemon
// restarts: resubmitting a job that died with the daemon resumes it.
//
// Usage:
//
//	campaignd [-addr host:port] [-addrfile file] [-store dir]
//	          [-budget N] [-grace dur] [-remoteslots N] [-leasettl dur]
//
// Remote campaignw workers connect over the lease protocol and add
// execution capacity beyond -budget: up to -remoteslots units at a time
// are leased out to parked workers, heartbeat-renewed, and re-queued
// locally if a worker goes silent for -leasettl.
//
// See the README's "Running as a service" section for the HTTP API and
// cmd/campaignctl for the matching client.
//
// SIGINT or SIGTERM begins a graceful shutdown: live jobs are
// cancelled — the cancellation reaches into the analog kernel's
// Newton/transient loops, so even a job mid-solve aborts in bounded
// time — checkpoints flush, open event streams close with a terminal
// state, and the process exits with status 130. A second signal
// force-quits. -grace bounds how long the drain may take.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/jobserver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaignd: ")
	os.Exit(run())
}

// run is main without os.Exit, so the shutdown paths are testable and
// deferred cleanups actually run.
func run() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:8120", "listen address (host:port; port 0 picks a free port)")
		addrFile    = flag.String("addrfile", "", "write the resolved listen address to this file (for scripts using port 0)")
		storeDir    = flag.String("store", "", "checkpoint directory; \"\" disables checkpoint/resume")
		budget      = flag.Int("budget", 0, "global worker budget shared across jobs (0 = GOMAXPROCS)")
		remoteSlots = flag.Int("remoteslots", 0, "units leasable to remote campaignw workers at a time (0 = default, negative disables)")
		leaseTTL    = flag.Duration("leasettl", 0, "remote lease lifetime between heartbeats (0 = default)")
		grace       = flag.Duration("grace", 60*time.Second, "graceful-shutdown budget for draining jobs")
	)
	flag.Parse()

	opts := jobserver.Options{
		Budget:      *budget,
		RemoteSlots: *remoteSlots,
		LeaseTTL:    *leaseTTL,
		Logf:        log.Printf,
	}
	if *storeDir != "" {
		opts.Store = campaign.DirStore{Dir: *storeDir}
	}
	srv := jobserver.New(opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Print(err)
			return 1
		}
	}
	hs := &http.Server{Handler: srv.Handler()}

	// The first SIGINT/SIGTERM starts the graceful drain; stop() runs
	// the moment the context fires, restoring the default handler so a
	// second signal force-quits a wedged shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("listening on %s (budget %d, store %q)", ln.Addr(), *budget, *storeDir)

	select {
	case err := <-serveErr:
		log.Print(err)
		return 1
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down: draining jobs (budget %s)", *grace)

	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Order matters: cancel the jobs first so SSE watchers receive their
	// terminal state and disconnect, then drain the HTTP server — open
	// event streams would otherwise hold Shutdown until the deadline.
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("job drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("http drain: %v", err)
		hs.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Print(err)
	}
	log.Print("checkpoints flushed; bye")
	return 130
}
