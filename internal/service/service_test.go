package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// newTestServer starts a service on an httptest listener and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func do(t *testing.T, method, url string, body []byte, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func decodeStatus(t *testing.T, raw []byte) Status {
	t.Helper()
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad status body %q: %v", raw, err)
	}
	return st
}

// pollDone polls a submission until it is terminal.
func pollDone(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, raw := do(t, http.MethodGet, base+"/v1/jobs/"+id, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll %s: %d %s", id, resp.StatusCode, raw)
		}
		st := decodeStatus(t, raw)
		if st.State == subDone || st.State == subFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission %s stuck in %q", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// deterministic simulated scenario, small enough for a test run.
const simSpec = `{
  "schema": "moon-scenario/v1",
  "name": "svc-e2e",
  "sweep": {"seeds": [1], "rates": [0.5], "scale": 32},
  "metrics": {"bucket_seconds": 600},
  "experiments": [
    {"app": "sort", "multi": {"jobs": 2, "interval_seconds": 30, "policies": ["fair"]}}
  ]
}`

// bigFleetSpec posts a shard_workers value that must size nothing: when
// the field sized the JobTracker's per-worker tallies on fleets this large
// (2 060 trackers), this one spec asked the daemon for 79 TB.
const bigFleetSpec = `{
  "schema": "moon-scenario/v1",
  "name": "svc-big-fleet",
  "sweep": {"rates": [0.1], "scale": 32, "parallelism": 1, "shard_workers": 1099511627776},
  "experiments": [
    {"custom": {
      "title": "2k nodes",
      "cluster": {"volatile": 2040, "dedicated": 20, "horizon_seconds": 1800},
      "workload": {"app": "sort", "sleep": true, "reduce_slots": 88},
      "variants": [{"label": "2k-nodes", "preset": "moon-hybrid"}]
    }}
  ]
}`

// TestScenarioReportMatchesCLIPath is the tentpole acceptance pin: the
// report the service serves for a deterministic spec is byte-identical to
// the document the CLI path produces for the same spec (same Parse →
// Compile → Execute → Export pipeline; cmd/moonbench's own tests pin that
// pipeline against the real binary's flag path).
func TestScenarioReportMatchesCLIPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	for _, tc := range []struct{ name, spec string }{
		{"multi-job sort", simSpec},
		{"big fleet, huge shard_workers", bigFleetSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := scenario.Parse(strings.NewReader(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := scenario.Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			var wantOut bytes.Buffer
			want := metrics.NewExport("moonbench")
			want.Scenario = spec.Name
			want.SpecHash = spec.Hash()
			if err := plan.Execute(&wantOut, want); err != nil {
				t.Fatal(err)
			}
			var wantDoc bytes.Buffer
			if err := want.WriteJSON(&wantDoc); err != nil {
				t.Fatal(err)
			}

			_, ts := newTestServer(t, Config{})
			resp, raw := do(t, http.MethodPost, ts.URL+"/v1/scenarios", []byte(tc.spec), nil)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit scenario: %d %s", resp.StatusCode, raw)
			}
			st := pollDone(t, ts.URL, decodeStatus(t, raw).ID)
			if st.State != subDone {
				t.Fatalf("scenario failed: %s", st.Error)
			}
			if st.Output != wantOut.String() {
				t.Errorf("rendered output differs from CLI path:\n--- service ---\n%s\n--- cli ---\n%s", st.Output, wantOut.String())
			}
			resp, got := do(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/report", nil, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("report: %d %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, wantDoc.Bytes()) {
				t.Errorf("service report is not byte-identical to the CLI path:\n--- service ---\n%s\n--- cli ---\n%s", got, wantDoc.Bytes())
			}
		})
	}
}

// TestDirectJobLifecycle: submit → poll → report for a direct engine job
// on the persistent cluster.
func TestDirectJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := []byte(`{"name": "count", "splits": 4, "words_per_split": 80, "reduces": 2}`)
	resp, raw := do(t, http.MethodPost, ts.URL+"/v1/jobs", body, map[string]string{"X-Moon-Tenant": "alice"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	st := decodeStatus(t, raw)
	if st.Tenant != "alice" || st.Kind != "job" {
		t.Fatalf("bad submit status: %+v", st)
	}
	final := pollDone(t, ts.URL, st.ID)
	if final.State != subDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	if final.Engine == nil || final.Engine.MapsDone != 4 || final.Engine.ReducesDone != 2 {
		t.Fatalf("engine status not propagated: %+v", final.Engine)
	}
	resp, raw = do(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/report", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d %s", resp.StatusCode, raw)
	}
	for _, want := range []string{`"schema": "moon-metrics/v1"`, `"map_attempts"`, `"makespan_seconds"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("job report missing %s:\n%s", want, raw)
		}
	}
}

// TestQuotaEnforcement pins the admission-control contract: with a quota
// of 1 concurrent + 1 queued, a tenant's second submission parks queued,
// the third bounces with 429 + Retry-After, other tenants are unaffected,
// and the parked submission is promoted when the slot frees.
func TestQuotaEnforcement(t *testing.T) {
	// A volatile-only pool, so the whole cluster can be frozen with
	// Suspend and the first job holds its quota slot for as long as the
	// test needs.
	s, ts := newTestServer(t, Config{
		VolatileWorkers: 2,
		Quota:           sched.QuotaConfig{MaxConcurrent: 1, MaxQueued: 1},
	})
	for w := 0; w < s.cluster.Workers(); w++ {
		if err := s.cluster.Suspend(w); err != nil {
			t.Fatal(err)
		}
	}
	body := []byte(`{"name": "q", "splits": 2, "words_per_split": 40}`)
	alice := map[string]string{"X-Moon-Tenant": "alice"}

	resp, raw := do(t, http.MethodPost, ts.URL+"/v1/jobs", body, alice)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, raw)
	}
	first := decodeStatus(t, raw)
	if first.State != subRunning {
		t.Fatalf("first submission should run immediately, is %q", first.State)
	}

	resp, raw = do(t, http.MethodPost, ts.URL+"/v1/jobs", body, alice)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", resp.StatusCode, raw)
	}
	second := decodeStatus(t, raw)
	if second.State != subQueued {
		t.Fatalf("second submission should queue, is %q", second.State)
	}

	resp, raw = do(t, http.MethodPost, ts.URL+"/v1/jobs", body, alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: want 429, got %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 is missing Retry-After")
	}
	var apiErr apiError
	if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Code != "quota_exceeded" {
		t.Errorf("429 body is not a structured quota error: %s", raw)
	}

	// Another tenant is not throttled by alice's quota.
	resp, raw = do(t, http.MethodPost, ts.URL+"/v1/jobs", body, map[string]string{"Authorization": "Bearer bob-key"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant submit: %d %s", resp.StatusCode, raw)
	}
	if st := decodeStatus(t, raw); st.Tenant != "bob-key" {
		t.Errorf("Bearer key not used as tenant: %+v", st)
	}

	// Thaw the pool: the running job finishes, the queued one promotes
	// and completes.
	for w := 0; w < s.cluster.Workers(); w++ {
		if err := s.cluster.Resume(w); err != nil {
			t.Fatal(err)
		}
	}
	if st := pollDone(t, ts.URL, first.ID); st.State != subDone {
		t.Fatalf("first job failed: %s", st.Error)
	}
	if st := pollDone(t, ts.URL, second.ID); st.State != subDone {
		t.Fatalf("queued job was not promoted: %+v", st)
	}
}

// TestDrainCompletesInFlight pins satellite 1: during Drain, in-flight
// submissions run to completion while new ones get a structured 503; the
// drained server still serves status and reports.
func TestDrainCompletesInFlight(t *testing.T) {
	// Volatile-only, so Suspend can freeze the in-flight job mid-drain.
	s, ts := newTestServer(t, Config{VolatileWorkers: 2})
	for w := 0; w < s.cluster.Workers(); w++ {
		if err := s.cluster.Suspend(w); err != nil {
			t.Fatal(err)
		}
	}
	body := []byte(`{"name": "inflight", "splits": 3, "words_per_split": 60}`)
	resp, raw := do(t, http.MethodPost, ts.URL+"/v1/jobs", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	inflight := decodeStatus(t, raw)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	resp, raw = do(t, http.MethodPost, ts.URL+"/v1/jobs", body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: want 503, got %d %s", resp.StatusCode, raw)
	}
	var apiErr apiError
	if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Code != "draining" {
		t.Errorf("503 body is not a structured drain error: %s", raw)
	}
	resp, raw = do(t, http.MethodPost, ts.URL+"/v1/scenarios", []byte(simSpec), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("scenario during drain: want 503, got %d %s", resp.StatusCode, raw)
	}

	// The in-flight job is still frozen; Drain must be waiting on it.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned before in-flight work finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	for w := 0; w < s.cluster.Workers(); w++ {
		if err := s.cluster.Resume(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := pollDone(t, ts.URL, inflight.ID); st.State != subDone {
		t.Fatalf("in-flight job did not complete through drain: %+v", st)
	}
	resp, raw = do(t, http.MethodGet, ts.URL+"/healthz", nil, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"draining"`) {
		t.Errorf("healthz after drain: %d %s", resp.StatusCode, raw)
	}
}

// TestEventsStreamDuringRun pins the streaming tentpole piece: a
// /v1/events subscriber receives `job` transition frames and live
// `metric` frames while a submission runs.
func TestEventsStreamDuringRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type: %s", ct)
	}

	body := []byte(`{"name": "streamed", "splits": 4, "words_per_split": 100, "reduces": 2}`)
	post, raw := do(t, http.MethodPost, ts.URL+"/v1/jobs", body, nil)
	if post.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", post.StatusCode, raw)
	}

	events := make(map[string]int)
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	current := ""
	for sc.Scan() && !sawDone {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events[current]++
			// The submission's own state, not the engine snapshot's: a job
			// the engine finished before the running frame was built
			// carries "state":"done" inside that frame's engine object.
			if current == "job" && decodeStatus(t, []byte(strings.TrimPrefix(line, "data: "))).State == subDone {
				sawDone = true
			}
		}
	}
	if !sawDone {
		t.Fatalf("stream ended without a done transition (scan err %v); saw %v", sc.Err(), events)
	}
	if events["metric"] == 0 {
		t.Error("no metric frames were streamed during the run")
	}
	if events["job"] < 2 {
		t.Errorf("want at least running+done job frames, got %d", events["job"])
	}
}

// TestStructuredErrors pins satellite 6: every 4xx carries a structured
// JSON body, unknown paths 404, and wrong methods 405 with Allow.
func TestStructuredErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		method, path string
		body         []byte
		status       int
		code         string
		allow        string
	}{
		{http.MethodGet, "/v1/nope", nil, http.StatusNotFound, "not_found", ""},
		{http.MethodGet, "/v1/jobs/999", nil, http.StatusNotFound, "not_found", ""},
		{http.MethodGet, "/v1/jobs/1/bogus", nil, http.StatusNotFound, "not_found", ""},
		{http.MethodDelete, "/v1/jobs", nil, http.StatusMethodNotAllowed, "method_not_allowed", "GET, POST"},
		{http.MethodPost, "/healthz", nil, http.StatusMethodNotAllowed, "method_not_allowed", "GET"},
		{http.MethodGet, "/v1/scenarios", nil, http.StatusMethodNotAllowed, "method_not_allowed", "POST"},
		{http.MethodPost, "/v1/jobs", []byte(`{"name": "x", "bogus": 1}`), http.StatusBadRequest, "bad_request", ""},
		{http.MethodPost, "/v1/jobs", []byte(`{"name": "x"}`), http.StatusBadRequest, "bad_request", ""},
		{http.MethodPost, "/v1/scenarios", []byte(`{"schema": "wrong"}`), http.StatusBadRequest, "bad_request", ""},
		// A repeated rate would run every cell of it twice on the daemon's CPU.
		{http.MethodPost, "/v1/scenarios", []byte(`{"schema": "moon-scenario/v1", "name": "twice", "sweep": {"rates": [0.5, 0.5], "scale": 32},
			"experiments": [{"figure": "fig4", "app": "sort"}]}`), http.StatusBadRequest, "bad_request", ""},
		// An outage clamp that is only wrong merged with the paper's model
		// ([4000 s, 3600 s]) used to be accepted and fail in its first cell.
		{http.MethodPost, "/v1/scenarios", []byte(`{"schema": "moon-scenario/v1", "name": "clamp", "sweep": {"rates": [0.5], "scale": 32},
			"experiments": [{"custom": {"title": "t", "cluster": {"outage": {"min_seconds": 4000}},
			"workload": {"app": "sort", "sleep": true}, "variants": [{"label": "a", "preset": "moon-hybrid"}]}}]}`),
			http.StatusBadRequest, "bad_request", ""},
	}
	for _, tc := range cases {
		resp, raw := do(t, tc.method, ts.URL+tc.path, tc.body, nil)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: want %d, got %d %s", tc.method, tc.path, tc.status, resp.StatusCode, raw)
			continue
		}
		var apiErr apiError
		if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Code != tc.code || apiErr.Message == "" {
			t.Errorf("%s %s: body is not a structured %q error: %s", tc.method, tc.path, tc.code, raw)
		}
		if tc.allow != "" && resp.Header.Get("Allow") != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, resp.Header.Get("Allow"), tc.allow)
		}
	}

	// Report before completion: 409 with a structured body.
	resp, raw := do(t, http.MethodPost, ts.URL+"/v1/jobs", []byte(`{"name": "r", "splits": 2, "words_per_split": 30}`), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	id := decodeStatus(t, raw).ID
	resp, raw = do(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/report", nil, nil)
	if resp.StatusCode == http.StatusOK {
		// Tiny jobs can legitimately finish between the two requests.
		t.Skip("job finished before the report race could be observed")
	}
	var apiErr apiError
	if resp.StatusCode != http.StatusConflict || json.Unmarshal(raw, &apiErr) != nil || apiErr.Code != "not_finished" {
		t.Errorf("early report fetch: want structured 409, got %d %s", resp.StatusCode, raw)
	}
}

// TestConcurrentClients hammers the API from N clients at once — run
// under -race in CI: submissions, list polls, status polls and reports
// must all be data-race free and every accepted job must complete.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{
		VolatileWorkers: 4, DedicatedWorkers: 1,
		Quota: sched.QuotaConfig{MaxConcurrent: 2, MaxQueued: 64},
	})
	const clients = 8
	const jobsPerClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := map[string]string{"X-Moon-Tenant": fmt.Sprintf("tenant-%d", c)}
			for j := 0; j < jobsPerClient; j++ {
				body := fmt.Sprintf(`{"name": "c%dj%d", "splits": 2, "words_per_split": 40}`, c, j)
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
				for k, v := range tenant {
					req.Header.Set(k, v)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("client %d job %d: %d %s", c, j, resp.StatusCode, raw)
					return
				}
				var st Status
				if err := json.Unmarshal(raw, &st); err != nil {
					errs <- err
					return
				}
				deadline := time.Now().Add(30 * time.Second)
				for {
					r2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
					if err != nil {
						errs <- err
						return
					}
					raw2, _ := io.ReadAll(r2.Body)
					r2.Body.Close()
					var cur Status
					if err := json.Unmarshal(raw2, &cur); err != nil {
						errs <- fmt.Errorf("poll %s: %v (%s)", st.ID, err, raw2)
						return
					}
					if cur.State == subDone {
						break
					}
					if cur.State == subFailed {
						errs <- fmt.Errorf("job %s failed: %s", st.ID, cur.Error)
						return
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("job %s stuck in %s", st.ID, cur.State)
						return
					}
					time.Sleep(time.Millisecond)
				}
				if _, err := http.Get(ts.URL + "/v1/jobs"); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
