package netmodel

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkTransferChurn measures flow setup/teardown with fair-share
// recomputation on a 66-node fleet — the shuffle's hot path.
func BenchmarkTransferChurn(b *testing.B) {
	s := sim.New()
	traces := make([]trace.Trace, 60)
	for i := range traces {
		traces[i] = trace.Trace{Duration: 1e12}
	}
	c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 6})
	n := New(s, c, DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := c.Node(i % 60)
		dst := c.Node((i + 7) % 60)
		n.Transfer(src, dst, 530e3, func(error) {}) // one shuffle segment
		s.RunUntil(s.Now() + 0.05)
	}
}

// BenchmarkFanIn measures the arrival side of a fan-in burst: F transfers
// into one sink started within a single event callback, then the settle pass
// that recomputes rates for the instant. With batched settling each affected
// flow is refreshed once per instant, so cost grows linearly in F; the eager
// per-change recompute resettled the sink's whole flow list on every arrival,
// growing quadratically. Setup (fresh simulation and cluster) and flow
// teardown are untimed.
func BenchmarkFanIn(b *testing.B) {
	for _, F := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("flows=%d", F), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := sim.New()
				c := cluster.New(s, cluster.Config{DedicatedNodes: F + 1})
				n := New(s, c, DefaultConfig())
				sink := c.Node(0)
				s.After(0, "burst", func() {
					for j := 0; j < F; j++ {
						n.Transfer(c.Node(j+1), sink, 1e12, func(error) {})
					}
				})
				b.StartTimer()
				s.Step()           // fire the burst: F Transfers mark their endpoints
				_ = n.TotalBytes() // settle pass: one refresh per affected flow
			}
		})
	}
}

// BenchmarkFinishCascade measures the departure side: k equal fetches into
// one sink end at the same instant while the sink carries F long flows. The
// first completion event finishes the other k-1 in a nested cascade, and
// every finish resettles the sink, so each of the F bystanders is refreshed
// k times in the instant — and re-keyed in the due-set once, at the barrier
// after it. One network serves every iteration (slots, scratch buffers and
// the heap are warm: 0 allocs/op); starting the fetches and queueing their
// first completion are untimed. The fabric is slow on purpose: the siblings
// are swept up by the first completion only while a completion time's
// rounding error times the rate stays under the 1e-6-byte epsilon, and at
// 117 MB/s shares that stops holding a few simulated hours in.
func BenchmarkFinishCascade(b *testing.B) {
	for _, sz := range []struct{ k, F int }{{4, 16}, {16, 64}, {16, 256}, {64, 256}} {
		b.Run(fmt.Sprintf("k=%d/F=%d", sz.k, sz.F), func(b *testing.B) {
			s := sim.New()
			c := cluster.New(s, cluster.Config{DedicatedNodes: 1 + sz.F + sz.k})
			n := New(s, c, Config{NodeBandwidth: 1e4, DiskBandwidth: 1e4, StallTimeout: 30})
			sink := c.Node(0)
			done := func(error) {}
			s.After(0, "carry", func() {
				for j := 0; j < sz.F; j++ {
					n.Transfer(c.Node(1+j), sink, 1e18, done)
				}
			})
			s.Step()
			fetch := 1e4 / float64(sz.F+sz.k) // one second at the sink's fair share
			burst := func() {
				for j := 0; j < sz.k; j++ {
					n.Transfer(c.Node(1+sz.F+j), sink, fetch, done)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.After(0, "burst", burst)
				s.Step()
				n.barrier() // settle the arrivals and queue the first completion
				fired := s.Fired()
				b.StartTimer()
				s.RunUntil(s.Now() + 2)
				if got := n.ActiveFlows(0); got != sz.F || s.Fired() != fired+1 {
					b.Fatalf("%d flows left on the sink after %d events, want %d after 1", got, s.Fired()-fired, sz.F)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*sz.k), "µs/flow")
		})
	}
}
