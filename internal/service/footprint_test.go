package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

// svcOpenJob is the submission bench/workloads/svc-open.json posts.
const svcOpenJob = `{"name":"wc","reduces":3,"splits":8,"words_per_split":4000}`

// call drives the handler directly — no socket, no client — so what the
// tests below count is what the daemon itself does with a request.
func call(s *Server, method, path, body string, header map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// runToDone submits n jobs one after another, each polled to done.
func runToDone(t *testing.T, s *Server, n int, body string) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := call(s, http.MethodPost, "/v1/jobs", body, nil)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
		waitDone(t, s, decodeStatus(t, rec.Body.Bytes()).ID)
	}
}

// waitDone polls submission id until it is done.
func waitDone(t *testing.T, s *Server, id string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; {
		st := decodeStatus(t, call(s, http.MethodGet, "/v1/jobs/"+id, "", nil).Body.Bytes())
		if st.State == subDone {
			return
		}
		if st.State == subFailed || time.Now().After(deadline) {
			t.Fatalf("submission %s: %s %s", id, st.State, st.Error)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// settledHeap is the live heap once garbage is gone: two collections, so
// that what the first one's finalizers and pool victims held goes too.
func settledHeap() (live, total uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.TotalAlloc
}

// TestSubmissionFootprint holds the two budgets of a finished svc-open
// submission: what it leaves on the live heap — its registry entry and its
// final status, which a client can still ask for, and not its input (228 kB
// when the armed start closure and the result keys pinned the corpus; 2.3 kB
// when it also kept its rendered report and the engine's collector two
// gauges named after it) — and what running it allocates (5.1 MB when every
// emission appended to a per-key slice through a fresh hasher; 1.39 MB when
// every emission was stored as a "1" and each split was built as its own
// string; 0.15 MB with the map side combining and the splits cut from one
// tape). Both are per submission whatever came before: the loop is long
// enough that a term growing with history would show in the mean.
func TestSubmissionFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 450 jobs")
	}
	s, err := New(Config{VolatileWorkers: 4, DedicatedWorkers: 1, Quota: sched.QuotaConfig{MaxConcurrent: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runToDone(t, s, 50, svcOpenJob) // pools, scratch and the registry's first growth
	const n = 400
	live0, total0 := settledHeap()
	runToDone(t, s, n, svcOpenJob)
	live1, total1 := settledHeap()

	retained := (float64(live1) - float64(live0)) / n / 1e3
	allocated := float64(total1-total0) / n / 1e6
	t.Logf("per svc-open submission: %.1f kB retained, %.2f MB allocated", retained, allocated)
	if retained > 1 {
		t.Errorf("a finished submission retains %.1f kB of live heap, budget 1", retained)
	}
	if allocated > 0.5 {
		t.Errorf("a submission allocates %.2f MB, budget 0.5", allocated)
	}
}

// TestRejectedRequestCostsNothing: a request answered 400 takes no
// submission id, one answered 429 has built no split, and a parked
// submission holds its request, not its corpus. Each server's one worker
// is suspended throughout, so nothing runs and the heap holds still under
// the measurements.
func TestRejectedRequestCostsNothing(t *testing.T) {
	stalled := func(q sched.QuotaConfig) *Server {
		t.Helper()
		s, err := New(Config{VolatileWorkers: 1, Quota: q})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if err := s.cluster.Suspend(0); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := stalled(sched.QuotaConfig{MaxConcurrent: 1, MaxQueued: 64})
	submit := func(s *Server, tenant, body string, want int) Status {
		t.Helper()
		rec := call(s, http.MethodPost, "/v1/jobs", body, map[string]string{"X-Moon-Tenant": tenant})
		if rec.Code != want {
			t.Fatalf("tenant %s: %d %s, want %d", tenant, rec.Code, rec.Body, want)
		}
		return decodeStatus(t, rec.Body.Bytes())
	}

	first := submit(s, "a", svcOpenJob, http.StatusAccepted)
	submit(s, "a", `{"name":"wc","splits":8,"inputs":["x"]}`, http.StatusBadRequest)
	if next := submit(s, "a", svcOpenJob, http.StatusAccepted); first.ID != "1" || next.ID != "2" {
		t.Errorf("ids %s then %s across a rejected request, want 1 then 2", first.ID, next.ID)
	}

	submit(s, "b", svcOpenJob, http.StatusAccepted) // holds tenant b's one run slot
	const parked = 50
	live0, _ := settledHeap()
	for i := 0; i < parked; i++ {
		if st := submit(s, "b", svcOpenJob, http.StatusAccepted); st.State != subQueued {
			t.Fatalf("submission %s is %s, want parked", st.ID, st.State)
		}
	}
	live1, _ := settledHeap()
	if per := (float64(live1) - float64(live0)) / parked / 1e3; per > 2 {
		t.Errorf("a parked submission retains %.1f kB, budget 2 (its corpus would be 230)", per)
	}

	// 64 splits of 50 000 words are 20 MB the 429 must not have generated.
	noQueue := stalled(sched.QuotaConfig{MaxConcurrent: 1})
	submit(noQueue, "a", svcOpenJob, http.StatusAccepted)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submit(noQueue, "a", `{"name":"big","splits":64,"words_per_split":50000}`, http.StatusTooManyRequests)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a 429 allocated %d bytes", got)
	}
}

// TestRequestJobIsTheParentsJob: a request lowers to the job it lowered to
// when this package built the corpus itself — the scheme the live sweeps
// use, unsalted — and explicit inputs pass through untouched.
func TestRequestJobIsTheParentsJob(t *testing.T) {
	vocab := []string{"moon", "map", "reduce", "volunteer", "hadoop", "churn", "node", "data",
		"shuffle", "backup", "hybrid", "dedicated"}
	job := JobRequest{Name: "wc", Reduces: 3, Priority: 4, Splits: 6, WordsPerSplit: 41}.job("17")
	if job.Name != "s17.wc" || job.Reduces != 3 || job.Priority != 4 || len(job.Inputs) != 6 {
		t.Fatalf("job %q: %d reduces, priority %d, %d inputs", job.Name, job.Reduces, job.Priority, len(job.Inputs))
	}
	for s, input := range job.Inputs {
		var b strings.Builder
		for w := 0; w < 41; w++ {
			b.WriteString(vocab[(s*31+w*7)%len(vocab)])
			b.WriteByte(' ')
		}
		if input != b.String() {
			t.Fatalf("split %d:\n%q\nparent built:\n%q", s, input, b.String())
		}
	}
	var got []string
	job.Map("a  b\ta\n", func(k, v string) { got = append(got, k+"="+v) })
	if strings.Join(got, " ") != "a=1 b=1 a=1" || job.Reduce("a", []string{"1", "1"}) != "2" {
		t.Fatalf("map emitted %v, reduce of two = %q", got, job.Reduce("a", []string{"1", "1"}))
	}

	explicit := JobRequest{Name: "x", Reduces: 1, Inputs: []string{"one two", "three"}}.job("2")
	if len(explicit.Inputs) != 2 || explicit.Inputs[0] != "one two" || explicit.Inputs[1] != "three" {
		t.Fatalf("explicit inputs became %q", explicit.Inputs)
	}
}

// tinyJob is a direct job small enough to run fifty of in a test.
const tinyJob = `{"name":"tiny","splits":2,"words_per_split":50}`

// TestCollectorDoesNotGrowWithJobs: the persistent cluster's collector holds
// the same instruments after 50 finished direct jobs as after one. The
// engine used to mint a queue-wait and a makespan gauge named after each
// job, and keep them for the life of the daemon. A series is exported only
// once written, and which ones a run writes depends on faults (a lease that
// expires under load), so series are compared by scope: one minted per job
// would carry the job's name.
func TestCollectorDoesNotGrowWithJobs(t *testing.T) {
	instruments := func(jobs int) []string {
		s, err := New(Config{VolatileWorkers: 4, DedicatedWorkers: 1, Quota: sched.QuotaConfig{MaxConcurrent: -1}})
		if err != nil {
			t.Fatal(err)
		}
		runToDone(t, s, jobs, tinyJob)
		s.Close()
		snap := s.col.Snapshot()
		var keys []string
		for _, c := range snap.Counters {
			keys = append(keys, "counter "+string(c.Layer)+"/"+c.Name+"{"+c.Scope+"}")
		}
		for _, g := range snap.Gauges {
			keys = append(keys, "gauge "+string(g.Layer)+"/"+g.Name+"{"+g.Scope+"}")
		}
		scopes := map[string]bool{}
		for _, sd := range snap.Series {
			scopes[sd.Scope] = true
		}
		for scope := range scopes {
			keys = append(keys, "series scope {"+scope+"}")
		}
		for _, h := range snap.Histograms {
			keys = append(keys, "histogram "+string(h.Layer)+"/"+h.Name+"{"+h.Scope+"}")
		}
		sort.Strings(keys)
		return keys
	}
	one, fifty := instruments(1), instruments(50)
	if !reflect.DeepEqual(one, fifty) {
		t.Errorf("the collector's instruments after 1 job:\n%s\nafter 50:\n%s",
			strings.Join(one, "\n"), strings.Join(fifty, "\n"))
	}
}

// TestDirectJobReportIsRenderedOnRequest: a finished direct job keeps its
// final status, not a report. Each fetch renders the report from that
// status, so two fetches return the same bytes, and they are jobReport's.
func TestDirectJobReportIsRenderedOnRequest(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runToDone(t, s, 1, tinyJob)
	first := call(s, http.MethodGet, "/v1/jobs/1/report", "", nil)
	second := call(s, http.MethodGet, "/v1/jobs/1/report", "", nil)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("report: %d then %d", first.Code, second.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("two fetches of one report differ:\n%s\n%s", first.Body, second.Body)
	}
	sub := s.reg.get("1")
	sub.mu.Lock()
	final, kept := sub.engine, sub.report
	sub.mu.Unlock()
	if kept != nil {
		t.Errorf("a finished direct job keeps a %d B report", len(kept))
	}
	if want := jobReport("tiny", *final, s.cfg.MetricsBucket); !bytes.Equal(first.Body.Bytes(), want) {
		t.Errorf("served report:\n%s\njobReport of the final status:\n%s", first.Body, want)
	}
}

// TestDrainWaitsOnACount: Drain polls registry.idle, which reads how many
// accepted submissions are not yet terminal instead of walking every
// submission ever accepted. The count comes back to 0 through a job that
// runs to done, one parked behind it that runs later, and one whose submit
// fails.
func TestDrainWaitsOnACount(t *testing.T) {
	s, err := New(Config{VolatileWorkers: 1, Quota: sched.QuotaConfig{MaxConcurrent: 1, MaxQueued: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	active := func() int {
		s.reg.mu.Lock()
		defer s.reg.mu.Unlock()
		return s.reg.active
	}
	submit := func(want string) string {
		t.Helper()
		rec := call(s, http.MethodPost, "/v1/jobs", tinyJob, nil)
		st := decodeStatus(t, rec.Body.Bytes())
		if rec.Code != http.StatusAccepted || st.State != want {
			t.Fatalf("submit: %d, state %s, want %s", rec.Code, st.State, want)
		}
		return st.ID
	}

	if err := s.cluster.Suspend(0); err != nil {
		t.Fatal(err)
	}
	running, parked := submit(subRunning), submit(subQueued)
	if active() != 2 || s.reg.idle() {
		t.Fatalf("%d active with one running and one parked, want 2", active())
	}
	if err := s.cluster.Resume(0); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, running)
	waitDone(t, s, parked)
	if active() != 0 || !s.reg.idle() {
		t.Fatalf("%d active once both are done, want 0", active())
	}

	s.cluster.Close() // every submit from here on fails
	submit(subFailed)
	if active() != 0 || !s.reg.idle() {
		t.Fatalf("%d active after a failed submit, want 0", active())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.reg.waitIdle(ctx); err != nil {
		t.Fatalf("waitIdle: %v", err)
	}
}
