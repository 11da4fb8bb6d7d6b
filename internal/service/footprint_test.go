package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
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
		id := decodeStatus(t, rec.Body.Bytes()).ID
		for deadline := time.Now().Add(30 * time.Second); ; {
			st := decodeStatus(t, call(s, http.MethodGet, "/v1/jobs/"+id, "", nil).Body.Bytes())
			if st.State == subDone {
				break
			}
			if st.State == subFailed || time.Now().After(deadline) {
				t.Fatalf("submission %s: %s %s", id, st.State, st.Error)
			}
			time.Sleep(500 * time.Microsecond)
		}
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
// submission: what it leaves on the live heap — its status and its report,
// which a client can still ask for, and not its input (228 kB when the
// armed start closure and the result keys pinned the corpus) — and what
// running it allocates (5.1 MB when every emission appended to a per-key
// slice through a fresh hasher; 1.39 MB when every emission was stored as
// a "1" and each split was built as its own string; 0.15 MB with the map
// side combining and the splits cut from one tape). Both are per
// submission whatever came before: the loop is long enough that a term
// growing with history would show in the mean.
func TestSubmissionFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 450 jobs")
	}
	s, err := New(Config{Quota: sched.QuotaConfig{MaxConcurrent: -1}})
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
	if retained > 8 {
		t.Errorf("a finished submission retains %.1f kB of live heap, budget 8", retained)
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
