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
