package sim

import (
	"fmt"
	"testing"
)

// backlogSizes are the pending-event populations BenchmarkEventThroughput
// sweeps: the heap's schedule+fire cost grows with log(pending).
var backlogSizes = []int{0, 1000, 10000, 100000}

// BenchmarkEventThroughput measures schedule+fire of an event that is always
// the next to fire, against a standing backlog of far-future events: one
// sift-up from the last leaf to the root and one sift-down back, i.e. the
// heap's worst case per event and the cost of its depth. The models never run
// this pattern at these depths (a bench cell fires its events at a depth of
// 4-9 k and mostly schedules behind the root), so read it as a ceiling, not as
// a forecast of run time.
func BenchmarkEventThroughput(b *testing.B) {
	for _, pending := range backlogSizes {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := New()
			fn := func() {}
			for i := 0; i < pending; i++ {
				s.Schedule(1e6+float64(i)*0.25, "bg", fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(float64(i)*1e-3, "e", fn)
				s.Step()
			}
		})
	}
}

// BenchmarkTickerChain measures self-rescheduling tickers, the pattern all
// periodic services (scans, heartbeats, samplers) use.
func BenchmarkTickerChain(b *testing.B) {
	s := New()
	n := 0
	stop := s.Ticker(1, "t", func() { n++ })
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	_ = n
}

// BenchmarkScheduleCancel measures the schedule+cancel cycle in isolation:
// lazy invalidation plus the free list make it allocation-free and
// amortized O(1) per cycle (compaction bounds the heap).
func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(float64(i)+1e6, "e", fn)
		s.Cancel(e)
	}
}

// BenchmarkCancelHeavy interleaves cancellation with firing, the pattern of
// flow reschedules (cancel completion, schedule a new one, occasionally
// fire).
func BenchmarkCancelHeavy(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := float64(i)
		e := s.Schedule(at+2, "victim", fn)
		s.Schedule(at+1, "keeper", fn)
		s.Cancel(e)
		s.Step()
	}
}

// BenchmarkShardPhase measures the parallel-phase hot path per ITEM: one
// op is one index of a fanned span (a synthetic per-node compute kernel
// writing a per-index slot and a per-worker padded partial — the contract
// every real phase follows). The caller-owned partials make the per-item
// path allocation-free; the only allocations in a phase are the w-1
// goroutine spawns, amortized over the span, so allocs/op must report 0
// at EVERY width — CI gates exactly that. On a multi-core runner ns/op
// falls with width; on one core it shows the fan's overhead ceiling.
func BenchmarkShardPhase(b *testing.B) {
	const span = 1 << 16
	out := make([]uint64, span)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			pool := NewShardPool(w)
			partials := make([]Padded[uint64], pool.Workers())
			b.ReportAllocs()
			b.ResetTimer()
			for n := b.N; n > 0; n -= span {
				m := span
				if n < m {
					m = n
				}
				for i := range partials {
					partials[i].V = 0
				}
				pool.Run(m, func(worker, lo, hi int) {
					var sum uint64
					for i := lo; i < hi; i++ {
						// A splitmix-style round stands in for the per-node
						// draws/scans real phases do.
						x := (uint64(i) + 1) * 0x9e3779b97f4a7c15
						x ^= x >> 30
						x *= 0xbf58476d1ce4e5b9
						x ^= x >> 27
						out[i] = x
						sum += x
					}
					partials[worker].V = sum
				})
				var total uint64
				for i := range partials {
					total += partials[i].V
				}
				if total == 0 {
					b.Fatal("phase produced nothing")
				}
			}
		})
	}
}
