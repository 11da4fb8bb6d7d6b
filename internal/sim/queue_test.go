package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
)

// refHeap is a plain binary min-heap over the queue's (at, seq) total order.
// It is the reference implementation the calendar queue replaced: any correct
// priority queue pops the same strict sequence, so driving both with one
// operation stream and comparing orders checks the calendar end to end —
// slot hashing, sorted-run maintenance, year-scan fallback, hold caching and
// lazy cancellation.
type refHeap struct {
	ns []*node
}

func (h *refHeap) len() int { return len(h.ns) }

func (h *refHeap) push(n *node) {
	h.ns = append(h.ns, n)
	i := len(h.ns) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(h.ns[i], h.ns[p]) {
			break
		}
		h.ns[i], h.ns[p] = h.ns[p], h.ns[i]
		i = p
	}
}

func (h *refHeap) pop() *node {
	n := h.ns[0]
	last := len(h.ns) - 1
	h.ns[0] = h.ns[last]
	h.ns[last] = nil
	h.ns = h.ns[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.ns) && less(h.ns[l], h.ns[m]) {
			m = l
		}
		if r < len(h.ns) && less(h.ns[r], h.ns[m]) {
			m = r
		}
		if m == i {
			return n
		}
		h.ns[i], h.ns[m] = h.ns[m], h.ns[i]
		i = m
	}
}

// TestCalendarMatchesHeapReference drives the simulation and a shadow binary
// heap with one randomized schedule/cancel/reserve/fire stream and requires
// the identical fire order. Delays are quantized so many events collide on
// the same instant (exercising the seq tie-break) with occasional far-future
// outliers (exercising the sparse direct-search fallback and cursor rewind).
// Reserved positions enter the reference when they are drawn and the
// simulation only later, out of seq order — including at the current instant
// with younger events already waiting in the now-queue, the one case where
// append order is not (at, seq) order.
func TestCalendarMatchesHeapReference(t *testing.T) {
	lateAtNow := 0
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		s := New()
		h := &refHeap{}

		type pair struct {
			ev Event
			hn *node
		}
		type held struct {
			res Reservation
			hn  *node
		}
		var live []pair
		var reserved []held
		var fired []uint64
		// lastAt/lastSeq is the position of the latest fired event. A held
		// position the clock has passed can no longer be queued (a model
		// must queue a position before anything behind it fires), so the
		// driver drops those instead.
		lastAt, lastSeq := -1.0, uint64(0)
		record := func(id uint64) func() {
			return func() {
				fired = append(fired, id)
				lastAt, lastSeq = s.Now(), id
			}
		}
		delay := func() float64 {
			switch r.Intn(10) {
			case 0:
				return 0 // same instant
			case 1:
				return r.Float64() * 1e7 // far future
			default:
				return float64(r.Intn(64)) * 0.25 // dense collisions
			}
		}

		for op := 0; op < 20000; op++ {
			switch k := r.Float64(); {
			case k < 0.45 || len(live) == 0:
				d := delay()
				hn := &node{at: s.Now() + d, seq: s.nextSeq}
				ev := s.After(d, "diff", record(hn.seq))
				h.push(hn)
				live = append(live, pair{ev, hn})
			case k < 0.55:
				res := s.Reserve(s.Now() + delay())
				hn := &node{at: res.at, seq: res.seq}
				h.push(hn)
				reserved = append(reserved, held{res, hn})
			case k < 0.65 && len(reserved) > 0:
				i := r.Intn(len(reserved))
				p := reserved[i]
				reserved[i] = reserved[len(reserved)-1]
				reserved = reserved[:len(reserved)-1]
				if p.res.at < lastAt || (p.res.at == lastAt && p.res.seq < lastSeq) {
					p.hn.canceled = true
					break
				}
				if p.res.at == s.Now() && s.nowqHead < len(s.nowq) {
					lateAtNow++
				}
				ev := s.ScheduleReserved(&p.res, "diff.reserved", record(p.res.seq))
				live = append(live, pair{ev, p.hn})
			case k < 0.8:
				i := r.Intn(len(live))
				p := live[i]
				if p.ev.Pending() {
					s.Cancel(p.ev)
					p.hn.canceled = true
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				s.Step()
			}
		}
		for _, p := range reserved {
			p.hn.canceled = true // never queued
		}
		for s.Step() {
		}

		var want []uint64
		for h.len() > 0 {
			if n := h.pop(); !n.canceled {
				want = append(want, n.seq)
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, heap reference expects %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fire order diverges at %d: calendar popped %d, heap reference %d",
					seed, i, fired[i], want[i])
			}
		}
	}
	if lateAtNow == 0 {
		t.Fatal("no reserved position was queued at the current instant behind a non-empty now-queue")
	}
}

// TestReservationIsSingleUse pins the rule the calendar's removal relies on:
// a reserved position is queued at most once, and one that was never
// reserved not at all.
func TestReservationIsSingleUse(t *testing.T) {
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
				t.Fatalf("panic = %q, want it to contain %q", got, want)
			}
		}()
		fn()
	}
	s := New()
	res := s.Reserve(5)
	fired := 0
	ev := s.ScheduleReserved(&res, "once", func() { fired++ })
	mustPanic(`"again" queued twice`, func() { s.ScheduleReserved(&res, "again", func() {}) })
	s.Cancel(ev)
	mustPanic(`"revived" queued twice`, func() { s.ScheduleReserved(&res, "revived", func() {}) })
	var zero Reservation
	mustPanic(`"zero" at a position never reserved`, func() { s.ScheduleReserved(&zero, "zero", func() {}) })

	// A position keeps its place in the schedule order however late it is
	// queued: reserved before b was scheduled, so it fires before b.
	var order []string
	early := s.Reserve(7)
	s.Schedule(7, "b", func() { order = append(order, "b") })
	s.ScheduleReserved(&early, "a", func() { order = append(order, "a") })
	s.Run()
	if fired != 0 || len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("fired=%d order=%v, want 0 and [a b]", fired, order)
	}
	stale := s.Reserve(s.Now())
	s.Schedule(9, "later", func() {})
	s.Run()
	mustPanic("before now", func() { s.ScheduleReserved(&stale, "stale", func() {}) })
}

// TestCompactionAt100kPending verifies corpse management at scale: with 100k
// events queued and 99% canceled, the bulk compaction must sweep the corpses
// (bounding storage near the live count) and every survivor must still fire,
// in order.
func TestCompactionAt100kPending(t *testing.T) {
	const total = 100000
	s := New()
	var fired int
	lastAt := -1.0
	fn := func() {
		if s.Now() < lastAt {
			t.Fatalf("fire order regressed: %v after %v", s.Now(), lastAt)
		}
		lastAt = s.Now()
		fired++
	}
	evs := make([]Event, 0, total)
	for i := 0; i < total; i++ {
		evs = append(evs, s.Schedule(float64(i%9973)+1, "e", fn))
	}
	kept := 0
	for i, e := range evs {
		if i%100 == 0 {
			kept++
			continue
		}
		s.Cancel(e)
	}
	// Cancel compacts once corpses outnumber live events; after canceling
	// 99% the queue must hold roughly the survivors, not 100k corpses.
	if got := s.cal.len(); got > 2*kept {
		t.Fatalf("compaction left %d stored events for %d live ones", got, kept)
	}
	if got := s.Pending(); got != kept {
		t.Fatalf("Pending() = %d, want %d", got, kept)
	}
	s.Run()
	if fired != kept {
		t.Fatalf("fired %d events, want %d", fired, kept)
	}
	if got := s.cal.len(); got != 0 {
		t.Fatalf("queue not empty after run: %d stored", got)
	}
}
