package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestConcurrentJobsUnderChurn is the live engine's multi-tenancy
// acceptance test: N jobs submitted together on one cluster under
// trace-driven churn must all complete with exact results, populated
// per-job statuses (queue wait and makespan included), balanced queue
// accounting (no leaked live-attempt counts, no retained intermediate
// stores) and no instrument minted per job. Run with -race in CI.
func TestConcurrentJobsUnderChurn(t *testing.T) {
	const jobs = 4
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 4
	cfg.DedicatedWorkers = 2
	cfg.JobPolicy = "fair"
	col := metrics.New(1)
	cfg.Metrics = col
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Trace-driven churn across the volatile workers while the jobs run.
	traces := []trace.Trace{
		{Duration: 400, Outages: []trace.Interval{{Start: 20, End: 90}, {Start: 180, End: 260}}},
		{Duration: 400, Outages: []trace.Interval{{Start: 50, End: 140}}},
		{Duration: 400, Outages: []trace.Interval{{Start: 10, End: 60}, {Start: 220, End: 300}}},
		{Duration: 400, Outages: []trace.Interval{{Start: 100, End: 200}}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	churnDone := make(chan struct{})
	runner := NewChurnRunner(c, time.Millisecond)
	go func() {
		runner.PlayFleet(ctx, traces)
		close(churnDone)
	}()

	type expectation struct {
		h    *JobHandle
		want map[string]string
	}
	var subs []expectation
	for i := 0; i < jobs; i++ {
		job, want := wordCountJob(8+i, 300, 2+i%2)
		job.Name = fmt.Sprintf("churn-job-%d", i)
		h, err := c.Submit(job)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		subs = append(subs, expectation{h: h, want: want})
	}

	for i, s := range subs {
		got, st, err := s.h.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		checkResults(t, got, s.want)
		if st.Job != fmt.Sprintf("churn-job-%d", i) {
			t.Errorf("job %d status name %q", i, st.Job)
		}
		if st.QueueWait <= 0 || st.Makespan <= st.QueueWait {
			t.Errorf("job %d status times: makespan %v, queue wait %v", i, st.Makespan, st.QueueWait)
		}
		if st.Stats.MapAttempts < 8+i {
			t.Errorf("job %d map attempts %d < %d inputs", i, st.Stats.MapAttempts, 8+i)
		}
		if st.Stats.ReduceAttempts < 2+i%2 {
			t.Errorf("job %d reduce attempts %d", i, st.Stats.ReduceAttempts)
		}
	}
	<-churnDone
	// Let straggler/backup attempts of decided tasks retire, then stop the
	// master: queue state is safe to audit after Close returns.
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c.Close()

	// A job leaves the master once its last attempt retires, and clearJob
	// panics there on a job whose attempt accounting has not balanced: all
	// of them gone means all of them left balanced.
	if got := c.master.queue.Len(); got != 0 {
		t.Fatalf("queue still holds %d jobs after Drain", got)
	}
	if got := c.master.retired; got != jobs {
		t.Fatalf("%d jobs retired balanced, want %d", got, jobs)
	}
	// Every drained job's intermediate data must have been released.
	for _, w := range c.workers {
		w.storeMu.Lock()
		n := len(w.store)
		w.storeMu.Unlock()
		if n != 0 {
			t.Errorf("worker %d retains %d store entries after all jobs drained", w.id, n)
		}
	}

	// The task-duration histogram was fed, and no instrument is scoped by a
	// job: a job's times travel in its status, so the collector of a cluster
	// that runs jobs for days does not grow with them.
	snap := col.Snapshot()
	scopes := map[string]bool{}
	for _, c := range snap.Counters {
		scopes[c.Scope] = true
	}
	for _, g := range snap.Gauges {
		scopes[g.Scope] = true
	}
	for _, s := range snap.Series {
		scopes[s.Scope] = true
	}
	for _, hd := range snap.Histograms {
		scopes[hd.Scope] = true
	}
	for i := 0; i < jobs; i++ {
		if name := fmt.Sprintf("churn-job-%d", i); scopes[name] {
			t.Errorf("the collector holds an instrument scoped by job %s", name)
		}
	}
	var durCount int64
	for _, hd := range snap.Histograms {
		if hd.Layer == string(metrics.LayerEngine) && hd.Name == "task_duration_seconds" {
			durCount += hd.Count
		}
	}
	if durCount == 0 {
		t.Error("task_duration_seconds histogram empty")
	}
}

// TestConcurrentRunsShareOneCluster: the Run convenience wrapper is safe
// to call concurrently — each call is an independent Submit+Wait.
func TestConcurrentRunsShareOneCluster(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const n = 3
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			job, want := wordCountJob(6, 150, 2)
			job.Name = fmt.Sprintf("run-%d", i)
			got, _, err := c.Run(ctx, job)
			if err != nil {
				errs <- fmt.Errorf("run %d: %w", i, err)
				return
			}
			for k, v := range want {
				if got[k] != v {
					errs <- fmt.Errorf("run %d key %q = %q, want %q", i, k, got[k], v)
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitRejectsDuplicateLiveNames: two live jobs cannot share a name;
// a finished job releases it.
func TestSubmitRejectsDuplicateLiveNames(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Suspend all volatile workers? Not needed: submit two immediately —
	// the first cannot finish before the second submit is processed,
	// because both submits are serialized on the master loop ahead of any
	// completion event... not guaranteed; use a slow map to hold the
	// first job live.
	release := make(chan struct{})
	slow := Job{
		Name:    "dup",
		Inputs:  []string{"x"},
		Reduces: 1,
		Map: func(in string, emit func(k, v string)) {
			<-release
			emit(in, "1")
		},
		Reduce: func(k string, vs []string) string { return "1" },
	}
	h1, err := c.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(slow); err == nil {
		t.Fatal("duplicate live name accepted")
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := h1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// The name is free again.
	quick := slow
	quick.Map = func(in string, emit func(k, v string)) { emit(in, "1") }
	h2, err := c.Submit(quick)
	if err != nil {
		t.Fatalf("name of finished job still held: %v", err)
	}
	if _, _, err := h2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOSerializesWholeJobsAcrossPhases: policy rank dominates across
// task phases — under FIFO on a single worker, job A's *reduces* run
// before job B's maps. (A regression test for the offer() inversion where
// any job's pending maps outranked every job's reduces, starving a
// high-ranked job's reduce phase behind a low-ranked map backlog.)
func TestFIFOSerializesWholeJobsAcrossPhases(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 1
	cfg.DedicatedWorkers = 0
	cfg.ReplicateToDedicated = false
	cfg.JobPolicy = "fifo"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var mu sync.Mutex
	var order []string
	record := func(ev string) {
		mu.Lock()
		order = append(order, ev)
		mu.Unlock()
	}
	gate := make(chan struct{}) // holds every task until both jobs are queued
	mkJob := func(name string) Job {
		job, _ := wordCountJob(2, 50, 1)
		job.Name = name
		base, baseR := job.Map, job.Reduce
		job.Map = func(in string, emit func(k, v string)) {
			<-gate
			record(name + "-map")
			base(in, emit)
		}
		first := true
		job.Reduce = func(k string, vs []string) string {
			if first {
				record(name + "-reduce")
				first = false
			}
			return baseR(k, vs)
		}
		return job
	}
	hA, err := c.Submit(mkJob("A"))
	if err != nil {
		t.Fatal(err)
	}
	hB, err := c.Submit(mkJob("B"))
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	if _, _, err := hA.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := hB.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	got := strings.Join(order, " ")
	mu.Unlock()
	if got != "A-map A-map A-reduce B-map B-map B-reduce" {
		t.Fatalf("FIFO did not serialize whole jobs: %s", got)
	}
}

// TestUnknownJobPolicyRejected: a typo'd Config.JobPolicy is a hard error
// at New — nothing silently falls back to FIFO.
func TestUnknownJobPolicyRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JobPolicy = "round-robin"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown job policy accepted")
	}
	for _, ok := range []string{"", "fifo", "fair", "weighted", "priority"} {
		cfg.JobPolicy = ok
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("policy %q rejected: %v", ok, err)
		}
		c.Close()
	}
}

// TestPriorityPolicyFavorsHighPriorityJob: under the "priority" policy a
// high-priority job submitted after a low-priority one wins the slot
// offers, so it finishes its (identical) workload no later than jobs
// competing at default rank would suggest. We assert the high job's maps
// never queue behind the low job's: the low job makes no map progress
// while high-priority maps are pending.
func TestPriorityPolicyFavorsHighPriorityJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 2
	cfg.DedicatedWorkers = 0
	cfg.ReplicateToDedicated = false
	cfg.JobPolicy = "priority"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	gate := make(chan struct{}) // holds every map until both jobs are queued
	mkJob := func(name string, prio int) (Job, map[string]string) {
		job, want := wordCountJob(6, 100, 1)
		job.Name = name
		job.Priority = prio
		base := job.Map
		job.Map = func(in string, emit func(k, v string)) {
			<-gate
			time.Sleep(2 * time.Millisecond)
			base(in, emit)
		}
		return job, want
	}
	lowJob, lowWant := mkJob("low", 0)
	highJob, highWant := mkJob("high", 3)
	hLow, err := c.Submit(lowJob)
	if err != nil {
		t.Fatal(err)
	}
	hHigh, err := c.Submit(highJob)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)

	gotHigh, stHigh, err := hHigh.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, gotHigh, highWant)
	gotLow, stLow, err := hLow.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, gotLow, lowWant)
	if stHigh.Priority != 3 || stLow.Priority != 0 {
		t.Fatalf("status priorities %d/%d", stHigh.Priority, stLow.Priority)
	}
	// The high job took over from the low job's initial grab (the low job
	// held at most the 2 slots it won before the high submission) and
	// finished first.
	if stHigh.Makespan > stLow.Makespan {
		t.Errorf("high-priority makespan %v above low-priority %v", stHigh.Makespan, stLow.Makespan)
	}
}

// TestWeightedPolicyUsesConfiguredWeights: the weighted policy reaches the
// engine with its per-job weights attached.
func TestWeightedPolicyUsesConfiguredWeights(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JobPolicy = "weighted"
	cfg.JobWeights = map[string]float64{"heavy": 4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, name := range []string{"heavy", "light"} {
		job, want := wordCountJob(5, 100, 2)
		job.Name = name
		got, _, err := c.Run(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		checkResults(t, got, want)
	}
}
