package mapred

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/netmodel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkSmallJobUnderChurn measures an end-to-end MOON job (16 maps,
// 4 reduces, 10 volatile + 2 dedicated nodes, 0.4 unavailability) through
// the full simulated stack.
func BenchmarkSmallJobUnderChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := sim.New()
		traces, err := trace.GenerateFleet(rng.New(uint64(i+1)), trace.DefaultOutageConfig(0.4), 1e5, 10)
		if err != nil {
			b.Fatal(err)
		}
		c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 2})
		net := netmodel.New(s, c, netmodel.Config{NodeBandwidth: 1e6, DiskBandwidth: 4e6, StallTimeout: 30})
		dcfg := dfs.DefaultConfig(dfs.ModeMOON)
		dcfg.BlockSize = 1e6
		f, err := dfs.New(s, c, net, dcfg)
		if err != nil {
			b.Fatal(err)
		}
		jt, err := NewJobTracker(s, c, f, net, DefaultSchedConfig(PolicyMOON))
		if err != nil {
			b.Fatal(err)
		}
		cfg := JobConfig{
			Name: "bench", NumMaps: 16, NumReduces: 4, InputFile: "in",
			MapCPU: 20, ReduceCPU: 10,
			IntermediatePerMap: 2e5, IntermediateClass: dfs.Opportunistic,
			IntermediateFactor: dfs.Factor{D: 1, V: 1},
			OutputPerReduce:    2e5, OutputFactor: dfs.Factor{D: 1, V: 2},
		}
		if _, err := f.CreateStaged("in", 16e6, dfs.Reliable, dfs.Factor{D: 1, V: 2}); err != nil {
			b.Fatal(err)
		}
		done := false
		if _, err := jt.Submit(cfg, func(*Job) { done = true; s.Stop() }); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s.RunUntil(1e5)
		if !done {
			b.Fatal("job did not finish")
		}
	}
}

// BenchmarkHeartbeatScan measures the heartbeat's slot-availability scan,
// the one O(trackers) pass a tick makes, over a 4 160-tracker fleet. It
// reads tracker state only and must report 0 allocs/op.
func BenchmarkHeartbeatScan(b *testing.B) {
	const volatiles = 4096
	s := sim.New()
	traces, err := trace.GenerateFleet(rng.New(1), trace.DefaultOutageConfig(0.3), 1e5, volatiles)
	if err != nil {
		b.Fatal(err)
	}
	c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 64})
	net := netmodel.New(s, c, netmodel.Config{NodeBandwidth: 1e6, DiskBandwidth: 4e6, StallTimeout: 30})
	f, err := dfs.New(s, c, net, dfs.DefaultConfig(dfs.ModeMOON))
	if err != nil {
		b.Fatal(err)
	}
	jt, err := NewJobTracker(s, c, f, net, DefaultSchedConfig(PolicyMOON))
	if err != nil {
		b.Fatal(err)
	}
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += jt.countAvailableSlots()
	}
	if sink == 0 {
		b.Fatal("no slots counted")
	}
}

// BenchmarkShufflePump measures the pump call that finds nothing to do, which
// is nearly all of them: 384 maps, every partition fetched but map 0's — the
// straggler, still running — and no fetch in flight. A reduce attempt is
// pumped like this on every other map's completion and every fetch's end.
// (BenchmarkReplicationScan in internal/dfs is the NameNode scan's number.)
func BenchmarkShufflePump(b *testing.B) {
	w := newPumpWorld(b, &pumpProgram{maps: 384}, false)
	for m := 1; m < 384; m++ {
		w.completeMap(m)
	}
	sh := w.startAttempt(w.job.reduces[0], pumpNodes-1).shuffle
	for m := 1; m < 384; m++ {
		sh.setState(m, fetchDone)
		sh.fetched++
	}
	b.ReportAllocs()
	for b.Loop() {
		sh.pump()
	}
	if sh.inflight != 0 || sh.fetched != 383 || sh.finished {
		b.Fatalf("the idle pump did something: %d in flight, %d fetched, finished=%v", sh.inflight, sh.fetched, sh.finished)
	}
}
