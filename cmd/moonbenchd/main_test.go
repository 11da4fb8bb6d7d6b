package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/service"
)

// syncBuffer serializes writes so the test can read stdout while the
// daemon goroutine is still running.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon runs the daemon on a free port until ctx ends and returns its
// base URL, discovered from the startup line, and the channel run's error
// arrives on.
func startDaemon(t *testing.T, ctx context.Context, stdout, stderr *syncBuffer, drainTimeout string) (string, <-chan error) {
	t.Helper()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", drainTimeout}, stdout, stderr)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s%s", stdout.String(), stderr.String())
		}
		if out := stdout.String(); strings.Contains(out, "listening on ") {
			line := out[strings.Index(out, "listening on ")+len("listening on "):]
			return strings.TrimSpace(strings.Split(line, "\n")[0]), runErr
		}
	}
}

// TestDaemonServesAndDrains boots the daemon on a free port, submits one
// job, runs a shipped scenario through submit → event stream → poll →
// report, then cancels the run context (the signal path) and checks the
// graceful drain: in-flight work finished and the process exited cleanly.
func TestDaemonServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	base, runErr := startDaemon(t, ctx, &stdout, &stderr, "30s")

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, raw)
	}

	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"name": "smoke", "splits": 3, "words_per_split": 50}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad submit body %q: %v", raw, err)
	}

	// A shipped scenario end to end, as a client sees it: post the embedded
	// live-mix with its sweep cut to one cell a line, watch /v1/events carry
	// metric frames while it runs, poll to done, fetch the report.
	spec, err := scenario.Load("live-mix")
	if err != nil {
		t.Fatal(err)
	}
	spec.Sweep.Seeds, spec.Sweep.Rates = []uint64{1}, []float64{0.3}
	var body bytes.Buffer
	if err := spec.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	events, err := http.Get(base + "/v1/events") // returns once the stream is subscribed
	if err != nil {
		t.Fatal(err)
	}
	sawMetric := make(chan struct{})
	go func() {
		for sc := bufio.NewScanner(events.Body); sc.Scan(); {
			if sc.Text() == "event: metric" {
				close(sawMetric)
				return
			}
		}
	}()
	resp, err = http.Post(base+"/v1/scenarios", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit scenario: %d %s", resp.StatusCode, raw)
	}
	var sub struct {
		ID, State, Error string
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("bad scenario submit body %q: %v", raw, err)
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, raw)
		}
		return raw
	}
	for deadline := time.Now().Add(time.Minute); sub.State != "done"; time.Sleep(5 * time.Millisecond) {
		if err := json.Unmarshal(get("/v1/jobs/"+sub.ID), &sub); err != nil {
			t.Fatal(err)
		}
		if sub.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("scenario %s is %s: %s", sub.ID, sub.State, sub.Error)
		}
	}
	var report metrics.Export
	if err := json.Unmarshal(get("/v1/jobs/"+sub.ID+"/report"), &report); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if report.Schema != metrics.Schema || report.Scenario != "live-mix" || len(report.Experiments) == 0 {
		t.Errorf("report schema %q scenario %q with %d experiments, want %s, live-mix and at least one",
			report.Schema, report.Scenario, len(report.Experiments), metrics.Schema)
	}
	select {
	case <-sawMetric:
	case <-time.After(10 * time.Second):
		t.Error("/v1/events delivered no metric frame during the scenario's run")
	}
	events.Body.Close()

	// Trigger the signal path while the job may still be in flight.
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "stopped") {
		t.Errorf("missing graceful-drain lines in stdout:\n%s", out)
	}
	if s := stderr.String(); strings.Contains(s, "drain incomplete") {
		t.Errorf("drain did not finish in-flight work:\n%s", s)
	}
}

// TestShutdownEndsEventStreams: with a /v1/events client connected, the
// signal path used to wait out the whole drain timeout (60 s by default),
// because Shutdown waits for every connection to go idle and the streams
// were only ended after it returned. An idle daemon now stops at once, and
// the client's stream ends.
func TestShutdownEndsEventStreams(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	base, runErr := startDaemon(t, ctx, &stdout, &stderr, "10s")
	events, err := http.Get(base + "/v1/events") // returns once the stream is subscribed
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()

	start := time.Now()
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the daemon did not stop")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("the daemon took %v to stop with an event stream open; the drain timeout is 10s", took)
	}
	if _, err := io.ReadAll(events.Body); err != nil {
		t.Errorf("the event stream did not end cleanly: %v", err)
	}
}

// TestSlowHeaderClientIsDropped: the daemon used to serve with no timeout at
// all, so a client that opened a connection and never finished its request
// line held it, and its goroutine, for good. The server newServer builds
// closes that connection once the header timeout has run out, while a submit
// on a second connection is served as ever.
func TestSlowHeaderClientIsDropped(t *testing.T) {
	srv, err := service.New(service.Config{VolatileWorkers: 2, DedicatedWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newServer(srv, 100*time.Millisecond)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := slow.Write([]byte("POST /v1/jobs HT")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/jobs", "application/json",
		strings.NewReader(`{"name": "beside-slow", "splits": 2, "words_per_split": 20}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit beside the slow client: %d %s", resp.StatusCode, raw)
	}

	// The server answers an unfinished header with 408 or just hangs up; either
	// way the read ends long before the 10 s the test is willing to wait.
	if err := slow.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("the slow client's connection was not closed by the server: %v", err)
	}
}
