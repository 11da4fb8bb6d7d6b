package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
)

// The differential harness: one stream of operation bytes drives a
// Simulation and a reference that shares no logic with the event heap — an
// unsorted slice whose minimum is found by a linear scan over less. Any
// correct priority queue pops the same strict (at, seq) sequence, so the
// comparison checks the heap end to end: sift-up, sift-down, lazy cancel,
// compaction's filter-and-heapify and late-queued reservations.

// refEvent is one live, queued event as the reference sees it.
type refEvent struct {
	key node // at and seq only
	handle
}

type handle struct {
	ev Event
	id int // names the callback, which survives reschedule
}

// heldPosition is a reservation drawn and not yet queued: one Reserve
// returned, or — block set — one number out of a DrawOrder block with the
// time it is to be paired with, which ReservedAt turns into res only when the
// position is queued.
type heldPosition struct {
	res   Reservation
	id    int
	block bool
}

// queueDiff is the state of one differential run.
type queueDiff struct {
	t   testing.TB
	s   *Simulation
	ref []refEvent
	// evs is every handle the run was given, in order. reschedule picks
	// among the latest, which are a mix of pending, canceled and fired.
	evs    []handle
	held   []heldPosition
	nextID int
	// clock is Now() as last observed; lastAt/lastSeq the position of the
	// latest fired event. A held position the run has passed can no longer
	// be queued (a model must queue a position before anything behind it
	// fires), so the driver drops those instead.
	clock, lastAt Time
	lastSeq       uint64

	lateAtNow   int // reservations queued at the current instant behind a younger event
	fromBlock   int // positions queued that were built from a number of a block
	compactions int
	revived     int // canceled, unreclaimed events that reschedule brought back
}

func (d *queueDiff) refMin() int {
	m := -1
	for i := range d.ref {
		if m < 0 || less(&d.ref[i].key, &d.ref[m].key) {
			m = i
		}
	}
	return m
}

// queued records an event the simulation just accepted at (at, seq).
func (d *queueDiff) queued(at Time, seq uint64, h handle) {
	if !h.ev.Pending() {
		d.t.Fatalf("event %d is not pending after being queued", h.id)
	}
	d.ref = append(d.ref, refEvent{key: node{at: at, seq: seq}, handle: h})
	d.evs = append(d.evs, h)
}

func (d *queueDiff) refRemove(i int) {
	d.ref[i] = d.ref[len(d.ref)-1]
	d.ref = d.ref[:len(d.ref)-1]
}

// reschedule is the driver's move op, a Cancel and a Schedule of the same
// callback (no model code moves events; the simulator had it as Reschedule
// until nothing called it). A canceled event not yet reclaimed still has
// its callback and is revived; a zero or stale handle — the event fired —
// yields the zero Event and queues nothing.
func (s *Simulation) reschedule(e Event, at Time) Event {
	if !e.live() || e.n.fn == nil {
		return Event{}
	}
	fn, name := e.n.fn, e.n.name
	s.Cancel(e)
	return s.Schedule(at, name, fn)
}

// refFind locates a pending event by its handle; ids repeat once reschedule
// has revived a corpse whose callback it had already moved.
func (d *queueDiff) refFind(h handle) int {
	for i := range d.ref {
		if d.ref[i].ev == h.ev {
			return i
		}
	}
	d.t.Fatalf("event %d is pending in the simulation and unknown to the reference", h.id)
	return -1
}

// callback returns the event body for id: the fire must be the reference's
// minimum, at its time, and not before the clock.
func (d *queueDiff) callback(id int) func() {
	return func() {
		i := d.refMin()
		if i < 0 {
			d.t.Fatalf("event %d fired with the reference empty", id)
		}
		m := d.ref[i]
		if m.id != id || m.key.at != d.s.Now() {
			d.t.Fatalf("fire order diverges: simulation fired %d at %v, reference expects %d at %v",
				id, d.s.Now(), m.id, m.key.at)
		}
		if d.s.Now() < d.clock {
			d.t.Fatalf("event %d fired at %v, before the clock %v", id, d.s.Now(), d.clock)
		}
		d.refRemove(i)
		d.clock, d.lastAt, d.lastSeq = m.key.at, m.key.at, m.key.seq
	}
}

// cancelVia runs op, which cancels one pending event, and counts the
// compaction it may have triggered: nothing else lowers the corpse count.
func (d *queueDiff) cancelVia(op func()) {
	before := d.s.dead
	op()
	if d.s.dead <= before {
		d.compactions++
	}
}

// check holds between ops: the live count, the clock and the heap property
// over the backing slice.
func (d *queueDiff) check() {
	s := d.s
	if s.Pending() != len(d.ref) {
		d.t.Fatalf("Pending() = %d, reference holds %d live events", s.Pending(), len(d.ref))
	}
	if s.Now() < d.clock {
		d.t.Fatalf("clock moved back: %v -> %v", d.clock, s.Now())
	}
	d.clock = s.Now()
	for i := 1; i < len(s.queue); i++ {
		if less(s.queue[i], s.queue[(i-1)/2]) {
			d.t.Fatalf("heap order broken at index %d of %d", i, len(s.queue))
		}
	}
}

// delayOf spreads one operand byte over the three delay regimes: the current
// instant, a far-future outlier, and a 0.25 s grid dense enough that many
// events collide on one instant and order by seq alone.
func delayOf(v byte) Time {
	switch v % 10 {
	case 0:
		return 0
	case 1:
		return Time(v) * 4e4
	default:
		return Time(v>>2) * 0.25
	}
}

// Opcode bytes below each bound select the op; uniform random bytes give
// roughly 44 % schedule, 7 % reserve, 3 % block draw, 10 % late
// ScheduleReserved, 15 % cancel, 5 % reschedule, 13 % Step and 3 % RunUntil.
const (
	opSchedule      = 112
	opReserve       = 130
	opDrawBlock     = 138
	opQueueReserved = 164
	opCancel        = 202
	opReschedule    = 215
	opStep          = 248
)

// runQueueProgram decodes prog — an opcode byte, then the operand bytes its op
// takes (one for a delay, two for an index; missing bytes read as zero) — and
// runs it against both queues, checking after every op, then drains.
func runQueueProgram(t testing.TB, prog []byte) *queueDiff {
	s := New()
	d := &queueDiff{t: t, s: s}
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	index := func(n int) int { return (int(next()) | int(next())<<8) % n }

	for len(prog) > 0 {
		switch c := int(next()); {
		case c < opSchedule:
			delay, seq := delayOf(next()), s.nextSeq
			d.queued(s.Now()+delay, seq, handle{s.After(delay, "diff", d.callback(d.nextID)), d.nextID})
			d.nextID++
		case c < opReserve:
			d.held = append(d.held, heldPosition{res: s.Reserve(s.Now() + delayOf(next())), id: d.nextID})
			d.nextID++
		case c < opDrawBlock:
			// One to four consecutive numbers, as many Reserve calls would
			// have drawn; one of them is kept, with a time, to be queued.
			v, at := int(next()), s.Now()+delayOf(next())
			n := 1 + v&3
			base := s.DrawOrder(n)
			if s.nextSeq != base+uint64(n) {
				t.Fatalf("DrawOrder(%d) from %d left the next number at %d", n, base, s.nextSeq)
			}
			d.held = append(d.held, heldPosition{res: Reservation{at: at, seq: base + uint64(v>>2%n)}, id: d.nextID, block: true})
			d.nextID++
		case c < opQueueReserved:
			if len(d.held) == 0 {
				break
			}
			i := index(len(d.held))
			p := d.held[i]
			d.held[i] = d.held[len(d.held)-1]
			d.held = d.held[:len(d.held)-1]
			if p.res.at < s.Now() || (p.res.at == d.lastAt && p.res.seq < d.lastSeq) {
				break
			}
			if p.block {
				p.res = s.ReservedAt(p.res.at, p.res.seq)
				d.fromBlock++
			}
			if p.res.at == s.Now() {
				for _, e := range d.ref {
					if e.key.at == p.res.at && e.key.seq > p.res.seq {
						d.lateAtNow++
						break
					}
				}
			}
			d.queued(p.res.at, p.res.seq, handle{s.ScheduleReserved(&p.res, "diff.reserved", d.callback(p.id)), p.id})
		case c < opCancel:
			if len(d.ref) == 0 {
				break
			}
			i := index(len(d.ref))
			d.cancelVia(func() { s.Cancel(d.ref[i].ev) })
			d.refRemove(i)
		case c < opReschedule:
			if len(d.evs) == 0 {
				break
			}
			h := d.evs[len(d.evs)-1-index(min(len(d.evs), 256))]
			at, seq := s.Now()+delayOf(next()), s.nextSeq
			switch {
			case h.ev.Pending():
				d.refRemove(d.refFind(h))
				d.cancelVia(func() { h.ev = s.reschedule(h.ev, at) })
			case h.ev.live():
				// Canceled and not yet reclaimed: the callback is still
				// there, and reschedule revives it.
				h.ev = s.reschedule(h.ev, at)
				d.revived++
			default:
				if got := s.reschedule(h.ev, at); got != (Event{}) || s.nextSeq != seq {
					t.Fatalf("Reschedule of the stale handle of event %d queued something", h.id)
				}
				continue
			}
			d.queued(at, seq, h)
		case c < opStep:
			if want := len(d.ref) > 0; s.Step() != want {
				t.Fatalf("Step() = %v with %d live events in the reference", !want, len(d.ref))
			}
		default:
			// Deadlines up to 1.75 s ahead, at the clock, or behind it.
			v := next()
			before, deadline := s.Now(), s.Now()+Time(v>>5)*0.25
			if v%10 == 9 {
				deadline = before - 1 - Time(v)
			}
			s.RunUntil(deadline)
			if i := d.refMin(); i >= 0 {
				if d.ref[i].key.at <= deadline {
					t.Fatalf("RunUntil(%v) left an event due at %v", deadline, d.ref[i].key.at)
				}
				if want := max(before, deadline); s.Now() != want {
					t.Fatalf("RunUntil(%v) from %v left the clock at %v, want %v", deadline, before, s.Now(), want)
				}
			}
		}
		d.check()
	}
	for s.Step() {
		d.check()
	}
	if len(d.ref) != 0 || len(s.queue) != 0 || s.dead != 0 {
		t.Fatalf("drained run left %d reference events, %d stored nodes, %d corpses", len(d.ref), len(s.queue), s.dead)
	}
	return d
}

// TestQueueMatchesReference runs eight random op streams of ~20 000 ops each
// and requires that, between them, they reached the cases a short stream can
// miss: a reserved position queued at the current instant behind a younger
// same-instant event, a mid-run compaction, a revived corpse.
func TestQueueMatchesReference(t *testing.T) {
	var lateAtNow, compactions, revived, fromBlock int
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		prog := make([]byte, 46000)
		for i := range prog {
			prog[i] = byte(r.Intn(256))
		}
		d := runQueueProgram(t, prog)
		lateAtNow += d.lateAtNow
		compactions += d.compactions
		revived += d.revived
		fromBlock += d.fromBlock
	}
	if lateAtNow == 0 {
		t.Fatal("no reserved position was queued at the current instant behind a younger same-instant event")
	}
	if compactions == 0 || revived == 0 || fromBlock == 0 {
		t.Fatalf("compactions = %d, revived corpses = %d, positions out of a block = %d; want all exercised",
			compactions, revived, fromBlock)
	}
}

// corpusDir holds FuzzQueueVsReference's checked-in seed inputs, in the
// format `go test -fuzz` writes.
const corpusDir = "testdata/fuzz/FuzzQueueVsReference"

// readCorpusFile returns the []byte argument of one corpus file.
func readCorpusFile(t *testing.T, name string) []byte {
	raw, err := os.ReadFile(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 2 || string(lines[0]) != "go test fuzz v1" {
		t.Fatalf("%s: not a one-argument fuzz corpus file", name)
	}
	arg, ok := strings.CutPrefix(string(lines[1]), "[]byte(")
	arg, ok2 := strings.CutSuffix(arg, ")")
	prog, err := strconv.Unquote(arg)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s: argument is not a []byte literal: %v", name, err)
	}
	return []byte(prog)
}

// TestSeedCorpusCoversQueueCases pins what each checked-in input is there
// for, so a corpus edit cannot quietly stop reaching it.
func TestSeedCorpusCoversQueueCases(t *testing.T) {
	for name, reached := range map[string]func(d *queueDiff) bool{
		// 200 events, 150 canceled in one go: the 101st cancel finds more
		// than 64 corpses and more corpses than live events and compacts
		// with 50 live events of mixed delays left to heapify; then more
		// schedules, Steps and a RunUntil over the survivors.
		"compact-midrun": func(d *queueDiff) bool { return d.compactions >= 1 },
		// Reserve at the current instant, schedule three younger events
		// for it, then queue the reservation: it must fire first.
		"late-reservation-at-now": func(d *queueDiff) bool { return d.lateAtNow >= 1 },
		// Cancel, then Reschedule the corpse (revived) and a pending event
		// (moved), then Reschedule a fired handle (nothing happens).
		"reschedule-revive": func(d *queueDiff) bool { return d.revived >= 1 },
		// Descending delays push every new event to the root, then Steps
		// drain the heap from full depth; RunUntil with deadlines ahead
		// of, at and behind the clock.
		"sift-and-deadlines": func(d *queueDiff) bool { return d.s.Fired() >= 60 },
		// A block of four at the current instant, three younger events
		// scheduled for it, then the block's third number queued: it fires
		// first. A second block's number is queued for a later time, between
		// two events that were scheduled around the draw.
		"block-position-queued-late": func(d *queueDiff) bool { return d.fromBlock >= 2 && d.lateAtNow >= 1 },
	} {
		if d := runQueueProgram(t, readCorpusFile(t, name)); !reached(d) {
			t.Errorf("%s: no longer reaches the case it was checked in for", name)
		}
	}
}

// FuzzQueueVsReference lets the fuzzer write the op stream. Inputs are cut
// at 8 KiB: the reference's linear scans make a run quadratic in its length.
func FuzzQueueVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		runQueueProgram(t, prog[:min(len(prog), 8<<10)])
	})
}

// TestReservationIsSingleUse pins the rule that keeps stored keys unique —
// which is what makes the fire order independent of heap internals: a
// reserved position is queued at most once, and one that was never reserved
// not at all.
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

	// A block is so many Reserve calls: its numbers take the places between
	// the events scheduled around the draw, and only a drawn number, with a
	// time that has not passed, makes a position.
	order = order[:0]
	s.Schedule(20, "x", func() { order = append(order, "x") })
	base := s.DrawOrder(2)
	s.Schedule(20, "z", func() { order = append(order, "z") })
	if got := s.DrawOrder(0); got != base+3 {
		t.Fatalf("an empty draw after two numbers and an event returned %d, want %d", got, base+3)
	}
	y := s.ReservedAt(20, base+1)
	s.ScheduleReserved(&y, "y", func() { order = append(order, "y") })
	s.Run()
	if strings.Join(order, "") != "xyz" {
		t.Fatalf("order = %v, want [x y z]", order)
	}
	mustPanic("never drawn", func() { s.ReservedAt(s.Now(), base+3) })
	mustPanic("before now", func() { s.ReservedAt(s.Now()-1, base) })
	mustPanic("draw of -1", func() { s.DrawOrder(-1) })
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
	if got := len(s.queue); got > 2*kept {
		t.Fatalf("compaction left %d stored events for %d live ones", got, kept)
	}
	if got := s.Pending(); got != kept {
		t.Fatalf("Pending() = %d, want %d", got, kept)
	}
	s.Run()
	if fired != kept {
		t.Fatalf("fired %d events, want %d", fired, kept)
	}
	if got := len(s.queue); got != 0 {
		t.Fatalf("queue not empty after run: %d stored", got)
	}
}
