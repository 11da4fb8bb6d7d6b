package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// transportCounter digs one transport-layer counter out of a snapshot.
func transportCounter(t *testing.T, snap metrics.Snapshot, name string) float64 {
	t.Helper()
	for _, p := range snap.Counters {
		if p.Layer == string(metrics.LayerTransport) && p.Name == name {
			return p.Value
		}
	}
	t.Fatalf("transport counter %s missing from snapshot", name)
	return 0
}

// chaosConfig is the shared chaos fixture: a hybrid pool on a flaky fabric
// with drops, duplicates, delays, rare connection resets and one timed
// partition window, plus a session-expiry clock short enough for a test
// suspension to trip it.
func chaosConfig(seed uint64, col *metrics.Collector) Config {
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 4
	cfg.DedicatedWorkers = 2
	cfg.JobPolicy = "fair"
	cfg.Metrics = col
	cfg.Link.SessionExpiry = 150 * time.Millisecond
	cfg.Faults = &transport.FaultConfig{
		Seed:      seed,
		DropRate:  0.03,
		DupRate:   0.03,
		DelayRate: 0.03,
		Delay:     time.Millisecond,
		ResetRate: 0.002,
		Partitions: []transport.Partition{
			{Start: 100 * time.Millisecond, Duration: 80 * time.Millisecond, Addrs: []string{WorkerAddr(1)}},
		},
	}
	return cfg
}

// runChaosJobs submits n concurrent jobs and suspends worker 0 long enough
// to lapse its lease and expire its session, returning each job's results.
func runChaosJobs(t *testing.T, c *Cluster, n int) []map[string]string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A worker suspended before its first dial opens no session, and it is
	// worker 0's session the suspension below is there to expire. Past the
	// dial, the handshake does not stop at the gate.
	for c.tr.Stats().Dials < int64(c.Workers()) {
		if ctx.Err() != nil {
			t.Fatal("workers never dialled the master")
		}
		time.Sleep(time.Millisecond)
	}

	type sub struct {
		h    *JobHandle
		want map[string]string
	}
	var subs []sub
	for i := 0; i < n; i++ {
		job, want := wordCountJob(6+i, 200, 2)
		job.Name = fmt.Sprintf("chaos-job-%d", i)
		h, err := c.Submit(job)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		subs = append(subs, sub{h: h, want: want})
	}

	// Hold worker 0 silent past SessionExpiry: its lease must lapse and
	// its session must be evicted and re-established.
	if err := c.Suspend(0); err != nil {
		t.Fatal(err)
	}
	resumed := make(chan struct{})
	go func() {
		defer close(resumed)
		time.Sleep(300 * time.Millisecond)
		_ = c.Resume(0)
	}()

	results := make([]map[string]string, n)
	for i, s := range subs {
		got, _, err := s.h.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		checkResults(t, got, s.want)
		results[i] = got
	}
	// The jobs can finish without worker 0 in less than a SessionExpiry;
	// sit out the suspension, or the session is never evicted.
	<-resumed
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return results
}

// TestConfigValidate pins the configuration gate: the default is valid,
// and each protocol-breaking setting — a heartbeat that cannot fit inside
// the lease (either one left to its default), malformed link clocks,
// out-of-range fault rates — is rejected before any goroutine starts.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"no workers", func(c *Config) { c.VolatileWorkers, c.DedicatedWorkers = 0, 0 }},
		{"heartbeat at the default lease", func(c *Config) { c.Link.HeartbeatInterval = 50 * time.Millisecond }},
		{"lease under the default heartbeat", func(c *Config) { c.Link.LeaseDuration = 5 * time.Millisecond }},
		{"unknown policy", func(c *Config) { c.JobPolicy = "lottery" }},
		{"link heartbeat at lease", func(c *Config) {
			c.Link.HeartbeatInterval = 30 * time.Millisecond
			c.Link.LeaseDuration = 30 * time.Millisecond
		}},
		{"session expiry below lease", func(c *Config) { c.Link.SessionExpiry = 10 * time.Millisecond }},
		{"negative link retries", func(c *Config) { c.Link.MaxRetries = -1 }},
		{"drop rate above one", func(c *Config) { c.Faults = &transport.FaultConfig{DropRate: 2} }},
		{"delay rate without delay", func(c *Config) { c.Faults = &transport.FaultConfig{DelayRate: 0.5} }},
		{"zero-duration partition", func(c *Config) {
			c.Faults = &transport.FaultConfig{Partitions: []transport.Partition{{Start: time.Second}}}
		}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted it", tc.name)
		}
	}
}

// TestChaosExactResultsUnderFaults is the failure-handling acceptance
// test (run with -race in CI): concurrent jobs over a fabric injecting
// drops, duplicates, delays, connection resets, a partition window and a
// session-expiring suspension still produce exact results, leak no
// attempt accounting or intermediate stores, and the protocol metrics
// show the lease and session machinery actually engaged.
func TestChaosExactResultsUnderFaults(t *testing.T) {
	col := metrics.New(1)
	c, err := New(chaosConfig(42, col))
	if err != nil {
		t.Fatal(err)
	}
	runChaosJobs(t, c, 3)
	c.Close()

	if left, gone := c.master.queue.Len(), c.master.retired; left != 0 || gone != 3 {
		t.Errorf("%d jobs still queued, %d retired balanced; want 0 and 3", left, gone)
	}
	for _, w := range c.workers {
		w.storeMu.Lock()
		n := len(w.store)
		w.storeMu.Unlock()
		if n != 0 {
			t.Errorf("worker %d retains %d store entries after drain", w.id, n)
		}
	}

	snap := col.Snapshot()
	if v := transportCounter(t, snap, "lease_expiries"); v < 1 {
		t.Errorf("lease_expiries %v, want >= 1 (worker 0 was silent past its lease)", v)
	}
	if v := transportCounter(t, snap, "session_resets"); v < 1 {
		t.Errorf("session_resets %v, want >= 1 (worker 0 was silent past SessionExpiry)", v)
	}
	if v := transportCounter(t, snap, "sends"); v <= 0 {
		t.Errorf("sends %v, want > 0", v)
	}
	if v := transportCounter(t, snap, "drops"); v <= 0 {
		t.Errorf("drops %v, want > 0 (partition window plus drop rate)", v)
	}
}

// TestChaosSameSeedSameResults: the fault schedule is a pure function of
// the seed, and the protocol commits exactly-once under it — so two runs
// of the identical chaos workload produce identical job results.
func TestChaosSameSeedSameResults(t *testing.T) {
	run := func() []map[string]string {
		c, err := New(chaosConfig(7, nil))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return runChaosJobs(t, c, 3)
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("job %d: %d keys vs %d keys across runs", i, len(a[i]), len(b[i]))
		}
		for k, v := range a[i] {
			if b[i][k] != v {
				t.Fatalf("job %d key %q: %q vs %q across runs", i, k, v, b[i][k])
			}
		}
	}
}

// TestDrainDuringPartitionFailsWithTimeout: with every link inside a
// permanent partition window nothing can finish — Drain must surface the
// caller's timeout rather than hang, and Close must still return.
func TestDrainDuringPartitionFailsWithTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &transport.FaultConfig{
		Seed:       1,
		Partitions: []transport.Partition{{Start: 0, Duration: time.Hour}},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, _ := wordCountJob(2, 50, 1)
	if _, err := c.Submit(job); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := c.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain under total partition: %v, want %v", err, context.DeadlineExceeded)
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung during an active partition window")
	}
}

// TestLoopbackGoldenQuietCluster pins the default (loopback, no faults)
// path to the pre-transport engine's behavior: a quiet concurrent
// workload launches exactly one attempt per task, triggers none of the
// recovery machinery, and moves every message with zero transport faults.
func TestLoopbackGoldenQuietCluster(t *testing.T) {
	col := metrics.New(1)
	cfg := DefaultConfig()
	cfg.JobPolicy = "fair"
	cfg.Metrics = col
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const jobs = 3
	splits, reduces := 0, 0
	var handles []*JobHandle
	var wants []map[string]string
	for i := 0; i < jobs; i++ {
		job, want := wordCountJob(4+i, 150, 2)
		job.Name = fmt.Sprintf("quiet-job-%d", i)
		splits += 4 + i
		reduces += 2
		h, err := c.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		wants = append(wants, want)
	}
	var maps, reds, backups, reexecs int
	for i, h := range handles {
		got, prof, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		checkResults(t, got, wants[i])
		maps += prof.Stats.MapAttempts
		reds += prof.Stats.ReduceAttempts
		backups += prof.Stats.BackupCopies
		reexecs += prof.Stats.MapReexecs
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()

	if maps != splits || reds != reduces {
		t.Errorf("quiet loopback attempts: %d maps (want %d), %d reduces (want %d)", maps, splits, reds, reduces)
	}
	if backups != 0 || reexecs != 0 {
		t.Errorf("quiet loopback recovered from nothing: %d backups, %d reexecs", backups, reexecs)
	}
	snap := col.Snapshot()
	for _, name := range []string{"drops", "dup_deliveries", "delayed_deliveries", "conn_resets"} {
		if v := transportCounter(t, snap, name); v != 0 {
			t.Errorf("loopback counted %s = %v, want 0", name, v)
		}
	}
	for _, name := range []string{"lease_expiries", "session_resets", "duplicate_result_discards"} {
		if v := transportCounter(t, snap, name); v != 0 {
			t.Errorf("quiet cluster counted %s = %v, want 0", name, v)
		}
	}
	if v := transportCounter(t, snap, "sends"); v <= 0 {
		t.Errorf("sends %v, want > 0 (the protocol does run over the fabric)", v)
	}
}
