package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// wordCountJob builds a word-count job over deterministic synthetic text
// and the exact expected counts.
func wordCountJob(splits, wordsPerSplit, reduces int) (Job, map[string]string) {
	vocab := []string{"moon", "map", "reduce", "volunteer", "hadoop", "churn", "node", "data"}
	want := map[string]int{}
	inputs := make([]string, splits)
	for s := 0; s < splits; s++ {
		var b strings.Builder
		for i := 0; i < wordsPerSplit; i++ {
			w := vocab[(s*31+i*7)%len(vocab)]
			b.WriteString(w)
			b.WriteByte(' ')
			want[w]++
		}
		inputs[s] = b.String()
	}
	expect := make(map[string]string, len(want))
	for k, v := range want {
		expect[k] = strconv.Itoa(v)
	}
	job := Job{
		Name:    "wc",
		Inputs:  inputs,
		Reduces: reduces,
		Map: func(input string, emit func(k, v string)) {
			for _, w := range strings.Fields(input) {
				emit(w, "1")
			}
		},
		Reduce: func(key string, values []string) string {
			sum := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				sum += n
			}
			return strconv.Itoa(sum)
		},
	}
	return job, expect
}

func mustRun(t *testing.T, c *Cluster, job Job, timeout time.Duration) (map[string]string, Stats) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	got, stats, err := c.Run(ctx, job)
	if err != nil {
		t.Fatalf("Run: %v (stats %+v)", err, stats)
	}
	return got, stats
}

func checkResults(t *testing.T, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestWordCountQuietCluster(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job, want := wordCountJob(8, 200, 3)
	got, stats := mustRun(t, c, job, 10*time.Second)
	checkResults(t, got, want)
	if stats.MapAttempts != 8 || stats.ReduceAttempts != 3 {
		t.Fatalf("quiet cluster over-attempted: %+v", stats)
	}
	if stats.MapReexecs != 0 || stats.BackupCopies != 0 {
		t.Fatalf("quiet cluster recovered from nothing: %+v", stats)
	}
}

func TestSequentialJobsOnOneCluster(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		job, want := wordCountJob(4+i, 100, 2)
		got, _ := mustRun(t, c, job, 10*time.Second)
		checkResults(t, got, want)
	}
}

func TestExactResultsUnderChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 4
	cfg.DedicatedWorkers = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, want := wordCountJob(20, 500, 4)
	// Churn injector: cycle suspensions across volatile workers while the
	// job runs.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
				w := i % cfg.VolatileWorkers
				_ = c.Suspend(w)
				go func(w int) {
					time.Sleep(60 * time.Millisecond)
					_ = c.Resume(w)
				}(w)
				i++
			}
		}
	}()
	got, stats := mustRun(t, c, job, 30*time.Second)
	checkResults(t, got, want)
	t.Logf("churn stats: %+v", stats)
}

func TestSuspendedSoleWorkerJobStillFinishesViaDedicated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 1
	cfg.DedicatedWorkers = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, want := wordCountJob(4, 100, 2)
	if err := c.Suspend(0); err != nil {
		t.Fatal(err)
	}
	got, stats := mustRun(t, c, job, 15*time.Second)
	checkResults(t, got, want)
	if stats.BackupCopies == 0 && stats.MapAttempts <= len(job.Inputs) {
		// Either frozen-task backups fired, or everything ran dedicated
		// from the start; both are acceptable, but the job must finish.
		t.Logf("stats: %+v", stats)
	}
	_ = c.Resume(0)
}

func TestMapReexecutionWithoutDedicatedReplicas(t *testing.T) {
	// Without dedicated intermediate copies, suspending a map's worker
	// between map completion and shuffle forces re-execution.
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 2
	cfg.DedicatedWorkers = 1
	cfg.ReplicateToDedicated = false
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, want := wordCountJob(6, 300, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Suspend both volatile workers shortly after maps start; their
		// outputs become unreachable during shuffle.
		time.Sleep(20 * time.Millisecond)
		_ = c.Suspend(0)
		_ = c.Suspend(1)
		time.Sleep(300 * time.Millisecond)
		_ = c.Resume(0)
		_ = c.Resume(1)
	}()
	got, stats := mustRun(t, c, job, 30*time.Second)
	<-done
	checkResults(t, got, want)
	t.Logf("no-replication stats: %+v", stats)
}

func TestSuspendValidation(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Suspend(-1); err == nil {
		t.Fatal("suspended worker -1")
	}
	if err := c.Suspend(c.Workers()); err == nil {
		t.Fatal("suspended out-of-range worker")
	}
	// Last worker is dedicated under DefaultConfig.
	if err := c.Suspend(c.Workers() - 1); err == nil {
		t.Fatal("suspended a dedicated worker")
	}
	if err := c.Suspend(0); err != nil {
		t.Fatal(err)
	}
	if !c.Suspended(0) {
		t.Fatal("worker 0 not reported suspended")
	}
	if err := c.Resume(0); err != nil {
		t.Fatal(err)
	}
	if c.Suspended(0) {
		t.Fatal("worker 0 still reported suspended")
	}
}

func TestJobValidation(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, _, err := c.Run(ctx, Job{}); err == nil {
		t.Fatal("empty job accepted")
	}
	job, _ := wordCountJob(2, 10, 1)
	job.Reduces = 0
	if _, _, err := c.Run(ctx, job); err == nil {
		t.Fatal("zero reduces accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.VolatileWorkers, bad.DedicatedWorkers = 0, 0
	if _, err := New(bad); err == nil {
		t.Fatal("empty pool accepted")
	}
	bad = DefaultConfig()
	bad.Link.RecvTimeout = -time.Millisecond
	if _, err := New(bad); err == nil {
		t.Fatal("negative fetch receive timeout accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 1
	cfg.DedicatedWorkers = 0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Suspend the only worker so the job cannot proceed, then cancel.
	if err := c.Suspend(0); err != nil {
		t.Fatal(err)
	}
	job, _ := wordCountJob(2, 10, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, err = c.Run(ctx, job)
	if err == nil {
		t.Fatal("run succeeded with the only worker suspended")
	}
	_ = c.Resume(0)
}

func TestClosedClusterFailsRuns(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	job, _ := wordCountJob(2, 10, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, _, err := c.Run(ctx, job); err == nil {
		t.Fatal("run succeeded on closed cluster")
	}
}

func TestPartitionOfStableAndInRange(t *testing.T) {
	for _, r := range []int{1, 2, 7} {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("key-%d", i)
			p := partitionOf(k, r)
			if p < 0 || p >= r {
				t.Fatalf("partitionOf(%q,%d) = %d", k, r, p)
			}
			if p != partitionOf(k, r) {
				t.Fatal("partitionOf not deterministic")
			}
		}
	}
}

func TestChurnRunnerTraceDriven(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 3
	cfg.DedicatedWorkers = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Traces in "simulated seconds"; compression 1 ms/s keeps this test
	// around 300 ms of wall time.
	traces := []trace.Trace{
		{Duration: 300, Outages: []trace.Interval{{Start: 20, End: 90}, {Start: 150, End: 230}}},
		{Duration: 300, Outages: []trace.Interval{{Start: 50, End: 140}}},
		{Duration: 300, Outages: []trace.Interval{{Start: 10, End: 60}, {Start: 200, End: 280}}},
	}
	runner := NewChurnRunner(c, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	churnDone := make(chan struct{})
	go func() {
		runner.PlayFleet(ctx, traces)
		close(churnDone)
	}()

	job, want := wordCountJob(12, 400, 3)
	got, stats := mustRun(t, c, job, 20*time.Second)
	checkResults(t, got, want)
	<-churnDone
	// Every worker must be resumed after the traces end.
	for w := 0; w < cfg.VolatileWorkers; w++ {
		if c.Suspended(w) {
			t.Fatalf("worker %d left suspended after trace replay", w)
		}
	}
	t.Logf("trace-driven churn stats: %+v", stats)
}

func TestScaleDur(t *testing.T) {
	if scaleDur(2.5, time.Millisecond) != 2500*time.Microsecond {
		t.Fatal("scaleDur arithmetic")
	}
	if scaleDur(0, time.Second) != 0 {
		t.Fatal("scaleDur zero")
	}
}

// TestEngineMetricsCollection: a collector attached via Config.Metrics
// records the run's attempt counters in agreement with Stats, and a nil
// collector changes nothing.
func TestEngineMetricsCollection(t *testing.T) {
	cfg := DefaultConfig()
	col := metrics.New(1)
	cfg.Metrics = col
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, expect := wordCountJob(6, 40, 2)
	got, stats := mustRun(t, c, job, 10*time.Second)
	for k, v := range expect {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}

	snap := col.Snapshot()
	find := func(name string) float64 {
		for _, p := range snap.Counters {
			if p.Layer == string(metrics.LayerEngine) && p.Name == name {
				return p.Value
			}
		}
		t.Fatalf("counter %s missing from snapshot", name)
		return 0
	}
	if got, want := find("map_attempts"), float64(stats.MapAttempts); got != want {
		t.Errorf("map_attempts counter %v, want %v (Stats)", got, want)
	}
	if got, want := find("reduce_attempts"), float64(stats.ReduceAttempts); got != want {
		t.Errorf("reduce_attempts counter %v, want %v (Stats)", got, want)
	}
	if got, want := find("backup_copies"), float64(stats.BackupCopies); got != want {
		t.Errorf("backup_copies counter %v, want %v (Stats)", got, want)
	}
}
