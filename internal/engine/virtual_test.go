//go:build goexperiment.synctest

package engine

import (
	"testing"
	"testing/synctest"

	"repro/internal/metrics"
)

// virtual runs f in a synctest bubble, whose timers, tickers and time.Now
// read a clock that advances only when every goroutine in it is blocked.
// Go 1.25's synctest.Test replaces synctest.Run here.
func virtual(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// TestVirtualChaosExactResults runs the chaos workload (drops, duplicates,
// delays, resets, a partition window and a suspension past SessionExpiry)
// under 200 fault seeds on virtual time. Each seed returns exact results,
// retires its three jobs and leaves every worker store empty. Goroutine
// interleaving still varies, so the transport counters are held to bounds.
// A seed whose faults cost worker 0 its session before the suspension has
// no session to expire (2–4 seeds of the 200 in a run).
func TestVirtualChaosExactResults(t *testing.T) {
	const seeds = 200
	virtual(t, func(t *testing.T) {
		resets := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			col := metrics.New(1)
			c, err := New(chaosConfig(seed, col))
			if err != nil {
				t.Fatal(err)
			}
			// Every worker dials the master at once and blocks on its welcome.
			synctest.Wait()
			runChaosJobs(t, c, 3)
			c.Close()

			if left, gone := c.master.queue.Len(), c.master.retired; left != 0 || gone != 3 {
				t.Errorf("seed %d: %d jobs still queued, %d retired balanced; want 0 and 3", seed, left, gone)
			}
			for _, w := range c.workers {
				w.storeMu.Lock()
				n := len(w.store)
				w.storeMu.Unlock()
				if n != 0 {
					t.Errorf("seed %d: worker %d retains %d store entries after drain", seed, w.id, n)
				}
			}
			snap := col.Snapshot()
			for _, name := range []string{"lease_expiries", "sends", "drops"} {
				if v := transportCounter(t, snap, name); v < 1 {
					t.Errorf("seed %d: transport %s %v, want >= 1", seed, name, v)
				}
			}
			if transportCounter(t, snap, "session_resets") >= 1 {
				resets++
			}
			if t.Failed() {
				t.Errorf("seed %d failed; repro: chaosConfig(%d, col) in this test", seed, seed)
				return
			}
		}
		if resets < seeds*9/10 {
			t.Errorf("%d of %d seeds reset a session, want at least nine in ten", resets, seeds)
		}
	})
}
