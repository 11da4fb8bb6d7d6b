package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAdmissionQuotaFlow(t *testing.T) {
	a := NewAdmission[int](QuotaConfig{MaxConcurrent: 2, MaxQueued: 1})

	// Two run immediately, the third parks, the fourth is rejected.
	for i := 0; i < 2; i++ {
		run, err := a.Acquire("t1", i)
		if err != nil || !run {
			t.Fatalf("acquire %d: run=%v err=%v", i, run, err)
		}
	}
	run, err := a.Acquire("t1", 2)
	if err != nil || run {
		t.Fatalf("third acquire: run=%v err=%v, want parked", run, err)
	}
	_, err = a.Acquire("t1", 3)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("fourth acquire err = %v, want QuotaError", err)
	}
	if qe.Tenant != "t1" || qe.Kind != "queued" || qe.Limit != 1 {
		t.Fatalf("QuotaError = %+v", qe)
	}

	// Releasing one running slot hands it to the parked item.
	if next, ok := a.Release("t1"); !ok || next != 2 {
		t.Fatalf("release = %v, %v; want the parked item 2", next, ok)
	}
	if run, err := a.Acquire("t1", 4); err != nil || run {
		t.Fatalf("acquire at the cap: run=%v err=%v, want parked", run, err)
	}

	// Tenants are independent.
	if run, err := a.Acquire("t2", 0); err != nil || !run {
		t.Fatalf("t2 acquire: run=%v err=%v", run, err)
	}
}

func TestAdmissionZeroQueueRejectsWithConcurrentKind(t *testing.T) {
	a := NewAdmission[int](QuotaConfig{MaxConcurrent: 1})
	if run, err := a.Acquire("t", 0); err != nil || !run {
		t.Fatalf("first acquire: run=%v err=%v", run, err)
	}
	_, err := a.Acquire("t", 1)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Kind != "concurrent" {
		t.Fatalf("err = %v, want concurrent QuotaError", err)
	}
}

func TestAdmissionUnlimited(t *testing.T) {
	a := NewAdmission[int](QuotaConfig{MaxConcurrent: 0})
	for i := 0; i < 50; i++ {
		if run, err := a.Acquire("vip", i); err != nil || !run {
			t.Fatalf("acquire %d: run=%v err=%v", i, run, err)
		}
	}
}

// TestAdmissionReleaseAndPromoteIsOneStep drives, in order, the interleaving
// that used to go over the cap: a release that leaves room for a parked
// item, a competing acquire, then the promotion. Release hands the slot to
// the parked item itself, so the competing acquire parks behind it: running
// never exceeds the cap and items start in arrival order.
func TestAdmissionReleaseAndPromoteIsOneStep(t *testing.T) {
	const limit = 1
	a := NewAdmission[string](QuotaConfig{MaxConcurrent: limit, MaxQueued: 2})
	var started []string
	running := 0
	start := func(item string) {
		started = append(started, item)
		if running++; running > limit {
			t.Fatalf("%s starts with %d running, cap %d", item, running, limit)
		}
	}
	release := func() {
		running--
		if next, ok := a.Release("t"); ok {
			start(next)
		}
	}
	acquire := func(item string) {
		run, err := a.Acquire("t", item)
		if err != nil {
			t.Fatalf("acquire %s: %v", item, err)
		}
		if run {
			start(item)
		}
	}

	acquire("a") // runs
	acquire("b") // parks
	release()    // a retires: b takes the slot in the same step
	acquire("c") // competes for the freed slot and must park
	release()    // b retires: c's turn
	release()    // c retires
	if got := len(started); got != 3 || started[0] != "a" || started[1] != "b" || started[2] != "c" {
		t.Fatalf("started %v, want [a b c]", started)
	}
	if len(a.tenants) != 0 {
		t.Fatalf("an idle tenant keeps an entry: %+v", a.tenants["t"])
	}
}

func TestAdmissionConcurrentSafety(t *testing.T) {
	const limit = 4
	a := NewAdmission[int](QuotaConfig{MaxConcurrent: limit, MaxQueued: 4})
	var running, peak, admitted, started atomic.Int64
	// run starts an item and retires it, then every item the release hands
	// over. The counter rises after admission counts an item and falls
	// before admission forgets it, so it never reads above the real count.
	run := func() {
		for ok := true; ok; {
			started.Add(1)
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			running.Add(-1)
			_, ok = a.Release("t")
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				now, err := a.Acquire("t", i)
				if err != nil {
					continue
				}
				admitted.Add(1)
				if now {
					run()
				}
			}
		}()
	}
	wg.Wait()
	if started.Load() != admitted.Load() {
		t.Fatalf("%d admitted, %d started: a parked item was lost", admitted.Load(), started.Load())
	}
	if peak.Load() > limit {
		t.Fatalf("%d ran at once, cap %d", peak.Load(), limit)
	}
	if len(a.tenants) != 0 {
		t.Fatalf("accounting leaked: %+v", a.tenants["t"])
	}
}
