package dfs

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchFS builds a 66-node file system holding nfiles staged files.
func benchFS(b *testing.B, nfiles int) *FileSystem {
	b.Helper()
	s := sim.New()
	traces := make([]trace.Trace, 60)
	for i := range traces {
		traces[i] = trace.Trace{Duration: 1e12}
	}
	c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 6})
	net := netmodel.New(s, c, netmodel.DefaultConfig())
	fs, err := New(s, c, net, DefaultConfig(ModeMOON))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nfiles; i++ {
		if _, err := fs.CreateStaged(fmt.Sprintf("f%d", i), 62.5e6, Opportunistic, Factor{D: 1, V: 1}); err != nil {
			b.Fatal(err)
		}
	}
	return fs
}

// BenchmarkReplicationScan measures the NameNode's periodic scan over a
// sort-sized block population (384 intermediate files) with nothing to do:
// visiting every block, as the scan once did and its reference still does,
// and skipping them all as quiet, file by file.
func BenchmarkReplicationScan(b *testing.B) {
	fs := benchFS(b, 384)
	b.Run("every-block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scanEveryBlock(fs)
		}
	})
	b.Run("quiet-namespace", func(b *testing.B) {
		fs.replicationScan() // leaves every block quiet
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.replicationScan()
		}
	})
}

// BenchmarkHasReplicaOn measures the scheduler's per-tick locality test.
func BenchmarkHasReplicaOn(b *testing.B) {
	fs := benchFS(b, 64)
	id := BlockID{File: "f7", Index: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fs.HasReplicaOn(id, i%66)
	}
}

// BenchmarkAdaptiveV measures the availability-math hot path.
func BenchmarkAdaptiveV(b *testing.B) {
	fs := benchFS(b, 1)
	for i := range fs.pSamples {
		fs.pSamples[i] = 0.43
	}
	fs.pCount = len(fs.pSamples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fs.AdaptiveV()
	}
}
