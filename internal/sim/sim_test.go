package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		s.Schedule(at, "e", func() { got = append(got, at) })
	}
	s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, "tie", func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(10, "setup", func() {
		s.After(-5, "neg", func() { fired = true })
	})
	s.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v, want 10", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, "later", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(5, "past", func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, "x", func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	// Cancel of the zero handle and double cancel are no-ops.
	s.Cancel(Event{})
	s.Cancel(e)
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	var victim Event
	victim = s.Schedule(2, "victim", func() { fired = true })
	s.Schedule(1, "killer", func() { s.Cancel(victim) })
	s.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunUntilDeadline(t *testing.T) {
	s := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 10, 20} {
		at := at
		s.Schedule(at, "e", func() { fired = append(fired, at) })
	}
	s.RunUntil(5)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before deadline, want 3", len(fired))
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want advanced to deadline 5", s.Now())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

// A deadline behind the clock fires nothing and must not move the clock back.
func TestRunUntilPastDeadlineKeepsClock(t *testing.T) {
	s := New()
	s.Schedule(10, "a", func() {})
	s.Schedule(12, "b", func() {})
	s.RunUntil(10)
	s.RunUntil(5)
	if s.Now() != 10 {
		t.Fatalf("clock = %v after RunUntil(10), RunUntil(5); want 10", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), "e", func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt the run: fired %d", count)
	}
	// Run resumes after Stop.
	s.Run()
	if count != 10 {
		t.Fatalf("resumed run fired %d total, want 10", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.After(1, "r", recurse)
		}
	}
	s.After(1, "r", recurse)
	s.Run()
	if depth != 5 {
		t.Fatalf("recursive scheduling depth = %d, want 5", depth)
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := New()
	ticks := 0
	var stop func()
	stop = s.Ticker(10, "hb", func() {
		ticks++
		if ticks == 4 {
			stop()
		}
	})
	s.RunUntil(1000)
	if ticks != 4 {
		t.Fatalf("ticker fired %d times, want 4", ticks)
	}
	if s.Now() < 40 {
		t.Fatalf("clock = %v, want >= 40", s.Now())
	}
}

func TestTickerStopBeforeFirstTick(t *testing.T) {
	s := New()
	ticks := 0
	stop := s.Ticker(10, "hb", func() { ticks++ })
	stop()
	s.Run()
	if ticks != 0 {
		t.Fatalf("stopped ticker fired %d times", ticks)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-interval ticker did not panic")
		}
	}()
	New().Ticker(0, "bad", func() {})
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Schedule(float64(i), "e", func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

func TestPendingCount(t *testing.T) {
	s := New()
	e := s.Schedule(1, "a", func() {})
	s.Schedule(2, "b", func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Cancel(e)
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after cancel, want 1", s.Pending())
	}
}

// Property: for any set of event times, execution order is a sorted
// permutation of the input.
func TestQuickOrdering(t *testing.T) {
	if err := quick.Check(func(times []uint16) bool {
		s := New()
		var got []float64
		for _, u := range times {
			at := float64(u)
			s.Schedule(at, "q", func() { got = append(got, at) })
		}
		s.Run()
		if len(got) != len(times) {
			return false
		}
		return sort.Float64sAreSorted(got)
	}, nil); err != nil {
		t.Fatal(err)
	}
}
