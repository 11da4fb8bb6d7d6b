// Command moonbenchd serves the live engine as a long-running
// multi-tenant HTTP/JSON service: submissions, status polls, reports,
// and a streaming event feed over one persistent master.
//
//	moonbenchd -addr :8080 -volatile 8 -dedicated 2 -policy fair
//
// SIGTERM or SIGINT drains gracefully: new submissions get 503 while
// in-flight work runs to completion (bounded by -drain-timeout), then the
// event streams end and the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/sched"
	"repro/internal/service"
)

// A client that opens a connection and never finishes its request headers is
// dropped after readHeaderTimeout, a kept-alive connection nobody uses after
// idleTimeout. There is no write timeout: /v1/events streams for as long as
// its client listens (the submit handlers cap a request body and give it a
// read deadline).
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 120 * time.Second
)

// newServer is the daemon's HTTP front for h.
func newServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "moonbenchd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: it serves until ctx ends or a signal
// arrives, then drains and shuts the listener down.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	d := service.DefaultConfig()
	fs := flag.NewFlagSet("moonbenchd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	volatile := fs.Int("volatile", d.VolatileWorkers, "volatile (volunteer) workers in the persistent cluster")
	dedicated := fs.Int("dedicated", d.DedicatedWorkers, "dedicated workers in the persistent cluster")
	policy := fs.String("policy", "", "job arbitration policy: fifo (default), fair, weighted, priority")
	maxConcurrent := fs.Int("max-concurrent", d.Quota.MaxConcurrent, "per-tenant concurrent submissions (<= 0 unlimited)")
	maxQueued := fs.Int("max-queued", d.Quota.MaxQueued, "per-tenant queued submissions beyond the concurrent cap (<= 0 rejects instead of queueing)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long a signal-triggered drain may wait for in-flight work")
	eventBuffer := fs.Int("event-buffer", d.EventBuffer, "buffered updates per event stream before frames drop")
	bucket := fs.Float64("metrics-bucket", d.MetricsBucket, "metrics series bucket width in seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	srv, err := service.New(service.Config{
		VolatileWorkers:  *volatile,
		DedicatedWorkers: *dedicated,
		JobPolicy:        *policy,
		Quota:            sched.QuotaConfig{MaxConcurrent: *maxConcurrent, MaxQueued: *maxQueued},
		MetricsBucket:    *bucket,
		EventBuffer:      *eventBuffer,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Report the bound address (stdout, flushed line) so scripts using
	// :0 can discover the port.
	fmt.Fprintf(stdout, "moonbenchd listening on http://%s\n", ln.Addr())

	hs := newServer(srv, readHeaderTimeout)
	// Shutdown waits for every connection to go idle, and an event stream
	// never does: end the streams once the drain is over and Shutdown starts.
	hs.RegisterOnShutdown(srv.CloseEvents)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Fprintf(stdout, "moonbenchd draining (timeout %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(stderr, "moonbenchd: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-serveErr // always http.ErrServerClosed after Shutdown
	fmt.Fprintln(stdout, "moonbenchd stopped")
	return nil
}
