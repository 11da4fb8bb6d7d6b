//go:build goexperiment.synctest

package engine

import (
	"testing"
	"testing/synctest"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// virtual runs f in a synctest bubble, whose timers, tickers and time.Now
// read a clock that advances only when every goroutine in it is blocked.
// Go 1.25's synctest.Test replaces synctest.Run here.
func virtual(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// chaosSeed runs runChaosJobs' three jobs on a cluster built from cfg,
// inside a bubble, and checks that the master retired all three and that
// every worker store is empty after the drain. It returns the run's
// metrics, which cfg.Metrics must collect.
func chaosSeed(t *testing.T, cfg Config) metrics.Snapshot {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker dials the master at once and blocks on its welcome.
	synctest.Wait()
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
	return cfg.Metrics.Snapshot()
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
			snap := chaosSeed(t, chaosConfig(seed, metrics.New(1)))
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

// TestVirtualEachFaultClass runs the chaos workload with one of
// chaosConfig's fault classes at a time (drops, duplicates, delays, resets,
// then the partition window alone) under 25 fault seeds each, keeping
// runChaosJobs' suspension past SessionExpiry in every run. Each seed must
// return exact results, retire its three jobs and leave every store empty,
// and each class's own transport counter must read at least 1 over its
// seeds. The engine's map re-executions and backup copies per class are
// logged.
func TestVirtualEachFaultClass(t *testing.T) {
	const seeds = 25
	all := *chaosConfig(0, nil).Faults
	classes := []struct {
		name, counter string
		faults        transport.FaultConfig
	}{
		{"drops", "drops", transport.FaultConfig{DropRate: all.DropRate}},
		{"dups", "dup_deliveries", transport.FaultConfig{DupRate: all.DupRate}},
		{"delays", "delayed_deliveries", transport.FaultConfig{DelayRate: all.DelayRate, Delay: all.Delay}},
		{"resets", "conn_resets", transport.FaultConfig{ResetRate: all.ResetRate}},
		{"partition", "drops", transport.FaultConfig{Partitions: all.Partitions}},
	}
	for _, class := range classes {
		virtual(t, func(t *testing.T) {
			var faults, reexecs, backups float64
			for seed := uint64(1); seed <= seeds; seed++ {
				cfg := chaosConfig(seed, metrics.New(1))
				f := class.faults
				f.Seed = seed
				cfg.Faults = &f
				snap := chaosSeed(t, cfg)
				faults += transportCounter(t, snap, class.counter)
				for _, p := range snap.Counters {
					switch {
					case p.Layer != metrics.LayerEngine:
					case p.Name == "map_reexecs":
						reexecs += p.Value
					case p.Name == "backup_copies":
						backups += p.Value
					}
				}
				if t.Failed() {
					t.Errorf("%s, seed %d failed", class.name, seed)
					return
				}
			}
			if faults < 1 {
				t.Errorf("%s: transport %s %v over %d seeds, want >= 1", class.name, class.counter, faults, seeds)
			}
			t.Logf("%s: %s %v, map re-executions %v, backup copies %v over %d seeds",
				class.name, class.counter, faults, reexecs, backups, seeds)
		})
	}
}
