package sim

import (
	"fmt"
	"testing"
)

// TestStaleHandleCannotCancelRecycledEvent is the safety property of the
// event free list: a handle kept past its event's lifetime must never
// affect a later event that happens to reuse the same storage.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	s := New()
	stale := s.Schedule(1, "first", func() {})
	s.Run() // fires and retires "first"; its node returns to the pool

	fired := false
	fresh := s.Schedule(2, "second", func() { fired = true })
	if fresh.n != stale.n {
		t.Skip("pool did not reuse the node; nothing to check")
	}
	s.Cancel(stale) // must not touch "second"
	if fresh.Canceled() {
		t.Fatal("stale handle canceled a recycled event")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if stale.Pending() {
		t.Fatal("stale handle reports pending")
	}
}

// TestFreeListReuse verifies fired events actually return to the pool.
func TestFreeListReuse(t *testing.T) {
	s := New()
	e := s.Schedule(1, "a", func() {})
	s.Run()
	reused := s.Schedule(2, "b", func() {})
	if reused.n != e.n {
		t.Fatal("fired event's storage was not recycled")
	}
	if reused.gen == e.gen {
		t.Fatal("recycled node kept its generation")
	}
}

// TestLazyCancelDrainCounts checks the Canceled counter and that canceled
// events drained by Step and RunUntil are reclaimed identically.
func TestLazyCancelDrainCounts(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 10; i++ {
		evs = append(evs, s.Schedule(float64(i+1), "e", func() {}))
	}
	for _, e := range evs[:4] {
		s.Cancel(e)
	}
	if s.Canceled() != 4 {
		t.Fatalf("Canceled() = %d, want 4", s.Canceled())
	}
	if s.Pending() != 6 {
		t.Fatalf("Pending() = %d, want 6", s.Pending())
	}
	s.RunUntil(5) // fires events 5; drains canceled 1..4 lazily
	if s.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1 (events 1-4 canceled, event 5 fired)", s.Fired())
	}
	s.Run()
	if s.Fired() != 6 {
		t.Fatalf("Fired() = %d, want 6", s.Fired())
	}
	if s.Pending() != 0 || len(s.queue) != 0 {
		t.Fatalf("queue not drained: Pending=%d len=%d", s.Pending(), len(s.queue))
	}
}

// TestCancelCompaction verifies mass cancellation does not leave the heap
// full of corpses.
func TestCancelCompaction(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 1000; i++ {
		evs = append(evs, s.Schedule(float64(i+1), "e", func() {}))
	}
	for _, e := range evs[:999] {
		s.Cancel(e)
	}
	if len(s.queue) >= 1000 {
		t.Fatalf("queue did not compact: %d slots for 1 live event", len(s.queue))
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	fired := 0
	for s.Step() {
		fired++
	}
	if fired != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
}

// TestCancelDuringOwnCallback: canceling the handle of the currently
// executing event must be a no-op and must not corrupt the counters.
func TestCancelDuringOwnCallback(t *testing.T) {
	s := New()
	var self Event
	self = s.Schedule(1, "self", func() { s.Cancel(self) })
	s.Run()
	if s.Fired() != 1 || s.Canceled() != 0 {
		t.Fatalf("Fired=%d Canceled=%d, want 1/0", s.Fired(), s.Canceled())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

// TestEventPathAllocatesNothing is the allocation gate: once the free list
// and the heap's backing slice are warm, scheduling, firing and canceling
// allocate nothing, at any backlog.
func TestEventPathAllocatesNothing(t *testing.T) {
	fn := func() {}
	gate := func(name string, cycle func()) {
		t.Helper()
		if got := testing.AllocsPerRun(1000, cycle); got != 0 {
			t.Errorf("%s: %v allocs per cycle, want 0", name, got)
		}
	}
	for _, pending := range []int{0, 1000, 100000} {
		s := New()
		for i := 0; i < pending; i++ {
			s.Schedule(1e6+float64(i)*0.25, "bg", fn)
		}
		gate(fmt.Sprintf("schedule+Step at backlog %d", pending), func() {
			s.After(1e-3, "e", fn)
			s.Step()
		})
	}

	s := New()
	stop := s.Ticker(1, "t", fn)
	gate("ticker chain", func() { s.Step() })
	stop()

	s = New()
	gate("schedule+cancel", func() { s.Cancel(s.After(1e6, "e", fn)) })
}
