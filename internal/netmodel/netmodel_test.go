package netmodel

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testbed builds a 4-node cluster (3 volatile, 1 dedicated) with the given
// outage schedule on volatile node 0.
func testbed(outages []trace.Interval, cfg Config) (*sim.Simulation, *cluster.Cluster, *Network) {
	s := sim.New()
	traces := []trace.Trace{
		{Duration: 1e6, Outages: outages},
		{Duration: 1e6},
		{Duration: 1e6},
	}
	c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 1})
	return s, c, New(s, c, cfg)
}

func simpleCfg() Config {
	return Config{NodeBandwidth: 100, DiskBandwidth: 50, StallTimeout: 60}
}

func TestSingleTransferTime(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var doneAt float64 = -1
	n.Transfer(c.Node(1), c.Node(2), 1000, func(err error) {
		if err != nil {
			t.Errorf("transfer failed: %v", err)
		}
		doneAt = s.Now()
	})
	s.Run()
	// 1000 bytes at 100 B/s = 10 s.
	if math.Abs(doneAt-10) > 1e-9 {
		t.Fatalf("transfer finished at %v, want 10", doneAt)
	}
	if n.TotalBytes() != 1000 {
		t.Fatalf("TotalBytes = %v", n.TotalBytes())
	}
	if n.Consumed(1) != 1000 || n.Consumed(2) != 1000 {
		t.Fatalf("consumed = %v/%v, want 1000/1000", n.Consumed(1), n.Consumed(2))
	}
}

func TestFairSharingAtSource(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var t1, t2 float64
	n.Transfer(c.Node(1), c.Node(2), 1000, func(error) { t1 = s.Now() })
	n.Transfer(c.Node(1), c.Node(3), 1000, func(error) { t2 = s.Now() })
	s.Run()
	// Two flows share the 100 B/s source NIC: both take ~20 s.
	if math.Abs(t1-20) > 1e-6 || math.Abs(t2-20) > 1e-6 {
		t.Fatalf("completions at %v and %v, want 20", t1, t2)
	}
}

func TestRateRecoversWhenContenderFinishes(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var tBig float64
	n.Transfer(c.Node(1), c.Node(2), 500, func(error) {}) // shares until t=10
	n.Transfer(c.Node(1), c.Node(3), 1500, func(error) { tBig = s.Now() })
	s.Run()
	// Big flow: 10 s at 50 B/s (500 B), then 1000 B at 100 B/s => t=20.
	if math.Abs(tBig-20) > 1e-6 {
		t.Fatalf("big flow finished at %v, want 20", tBig)
	}
}

func TestLocalCopyUsesDisk(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var doneAt float64
	n.Transfer(c.Node(1), c.Node(1), 500, func(error) { doneAt = s.Now() })
	s.Run()
	// 500 bytes at 50 B/s disk = 10 s.
	if math.Abs(doneAt-10) > 1e-9 {
		t.Fatalf("local copy finished at %v, want 10", doneAt)
	}
}

func TestZeroByteTransferCompletesImmediately(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	done := false
	var errGot error
	n.Transfer(c.Node(1), c.Node(2), 0, func(err error) { done, errGot = true, err })
	s.Run()
	if !done || errGot != nil {
		t.Fatalf("zero-byte transfer done=%v err=%v", done, errGot)
	}
	if s.Now() != 0 {
		t.Fatalf("zero-byte transfer advanced clock to %v", s.Now())
	}
}

func TestOutagePausesTransfer(t *testing.T) {
	// Node 0 down during [5, 20): a 1000-byte flow from node 0 pauses and
	// resumes (outage 15 s < stall timeout 60 s).
	s, c, n := testbed([]trace.Interval{{Start: 5, End: 20}}, simpleCfg())
	var doneAt float64
	var errGot error
	n.Transfer(c.Node(0), c.Node(1), 1000, func(err error) { doneAt, errGot = s.Now(), err })
	s.Run()
	if errGot != nil {
		t.Fatalf("transfer failed: %v", errGot)
	}
	// 5 s at 100 B/s = 500 B, pause 15 s, then 500 B more: t = 25.
	if math.Abs(doneAt-25) > 1e-6 {
		t.Fatalf("paused transfer finished at %v, want 25", doneAt)
	}
}

func TestLongOutageStallsTransfer(t *testing.T) {
	s, c, n := testbed([]trace.Interval{{Start: 5, End: 500}}, simpleCfg())
	var errGot error
	var failAt float64
	n.Transfer(c.Node(0), c.Node(1), 1000, func(err error) { errGot, failAt = err, s.Now() })
	s.RunUntil(1000)
	if errGot != ErrStalled {
		t.Fatalf("err = %v, want ErrStalled", errGot)
	}
	// Stall timer arms at suspension (t=5), fires 60 s later.
	if math.Abs(failAt-65) > 1e-6 {
		t.Fatalf("stall failure at %v, want 65", failAt)
	}
}

func TestTransferToInitiallyDownNodeStalls(t *testing.T) {
	s, c, n := testbed([]trace.Interval{{Start: 0, End: 500}}, simpleCfg())
	var errGot error
	n.Transfer(c.Node(1), c.Node(0), 1000, func(err error) { errGot = err })
	s.RunUntil(1000)
	if errGot != ErrStalled {
		t.Fatalf("err = %v, want ErrStalled", errGot)
	}
}

func TestStallDisarmedOnResume(t *testing.T) {
	// Outage shorter than the stall timeout: flow must not fail even
	// though it was down at the deadline-less boundary.
	s, c, n := testbed([]trace.Interval{{Start: 1, End: 50}}, simpleCfg())
	var errGot error
	done := false
	n.Transfer(c.Node(0), c.Node(1), 100, func(err error) { errGot, done = err, true })
	s.RunUntil(1000)
	if !done || errGot != nil {
		t.Fatalf("done=%v err=%v, want clean completion", done, errGot)
	}
}

func TestCancel(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var errGot error
	f := n.Transfer(c.Node(1), c.Node(2), 1e9, func(err error) { errGot = err })
	s.Schedule(5, "cancel", func() { n.Cancel(f) })
	s.RunUntil(100)
	if errGot != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", errGot)
	}
	// Partial progress is still accounted.
	if n.Consumed(1) != 500 {
		t.Fatalf("consumed = %v, want 500 (5 s at 100 B/s)", n.Consumed(1))
	}
	// Double cancel is a no-op.
	n.Cancel(f)
}

// TestStaleHandleSparesSlotsNextFlow is the test a pool without generations
// fails: X ends, Y is given X's slot and with it X's object, and X's holder —
// who never heard of Y — cancels through the handle it kept.
func TestStaleHandleSparesSlotsNextFlow(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	x := n.Transfer(c.Node(1), c.Node(2), 100, func(error) {})
	s.RunUntil(10) // x is done at t=1
	var y Flow
	yDone, yErr := false, error(nil)
	for i := 0; y.slot != x.slot || y == (Flow{}); i++ {
		if i == 8 {
			t.Fatalf("eight transfers on an idle network and none was given slot %d back", x.slot)
		}
		y = n.Transfer(c.Node(1), c.Node(2), 100, func(err error) { yDone, yErr = true, err })
	}
	if x == y {
		t.Fatal("a slot's second flow has the handle of its first")
	}
	n.Cancel(x)
	s.Run()
	if !yDone || yErr != nil {
		t.Fatalf("y done=%v err=%v after Cancel(x), want a clean completion", yDone, yErr)
	}
	n.Cancel(y)      // ended: no-op
	n.Cancel(Flow{}) // the zero handle: no-op
	n.Cancel(n.Transfer(c.Node(1), c.Node(2), 0, func(error) {}))
}

// TestFetchPathAllocations is the fabric's half of the allocation gate: on a
// network whose slot table, node lists and due-set are warm, a transfer costs
// no heap object, whether it runs to completion or is canceled. (The other
// half, a whole shuffle fetch, is the test of the same name in
// internal/mapred.)
func TestFetchPathAllocations(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	done := func(error) {}
	gate := func(name string, cycle func()) {
		t.Helper()
		if got := testing.AllocsPerRun(1000, cycle); got != 0 {
			t.Errorf("%s: %v allocs per cycle, want 0", name, got)
		}
	}
	gate("Transfer+Cancel", func() { n.Cancel(n.Transfer(c.Node(1), c.Node(2), 100, done)) })
	gate("Transfer to completion", func() {
		n.Transfer(c.Node(1), c.Node(2), 100, done)
		n.Transfer(c.Node(3), c.Node(2), 100, done)
		n.Transfer(c.Node(2), c.Node(2), 100, done)
		s.Run()
	})
	if n.ActiveFlows(2) != 0 || len(n.flows) > 3 {
		t.Fatalf("%d flows left on node 2, %d slots for three flows at a time", n.ActiveFlows(2), len(n.flows))
	}
}

func TestCallbackErrorExactlyOnce(t *testing.T) {
	s, c, n := testbed([]trace.Interval{{Start: 0, End: 1e5}}, simpleCfg())
	calls := 0
	f := n.Transfer(c.Node(0), c.Node(1), 100, func(error) { calls++ })
	s.RunUntil(1000)
	n.Cancel(f) // already failed via stall; must not double-fire
	s.RunUntil(2000)
	if calls != 1 {
		t.Fatalf("callback fired %d times", calls)
	}
}

func TestConcurrentFlowConservation(t *testing.T) {
	// Many flows into one destination: aggregate completion respects the
	// destination NIC capacity.
	s, c, n := testbed(nil, simpleCfg())
	const flows = 5
	var last float64
	for i := 0; i < flows; i++ {
		src := c.Node(1 + i%3)
		n.Transfer(src, c.Node(0), 200, func(error) {
			if s.Now() > last {
				last = s.Now()
			}
		})
	}
	s.Run()
	// 1000 bytes total through a 100 B/s NIC >= 10 s; sources also cap.
	if last < 10-1e-6 {
		t.Fatalf("flows finished at %v, violating capacity (min 10)", last)
	}
	if math.Abs(n.Consumed(0)-1000) > 1e-6 {
		t.Fatalf("dst consumed %v, want 1000", n.Consumed(0))
	}
}

func TestActiveFlowsBookkeeping(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	n.Transfer(c.Node(1), c.Node(2), 1000, func(error) {})
	if n.ActiveFlows(1) != 1 || n.ActiveFlows(2) != 1 {
		t.Fatalf("active flows %d/%d, want 1/1", n.ActiveFlows(1), n.ActiveFlows(2))
	}
	s.Run()
	if n.ActiveFlows(1) != 0 || n.ActiveFlows(2) != 0 {
		t.Fatal("flows not removed after completion")
	}
	if n.ActiveFlows(-1) != 0 || n.ActiveFlows(99) != 0 {
		t.Fatal("out-of-range node IDs should report 0 flows")
	}
}

// TestNegativeBytesPanics: a size that is not a finite, non-negative number is
// a caller's bug. NaN used to pass both comparisons (the flow sorted first in
// the due-set, done(nil) fired at once and TotalBytes was NaN from then on),
// and +Inf made a flow whose done never ran.
func TestNegativeBytesPanics(t *testing.T) {
	_, c, n := testbed(nil, simpleCfg())
	for _, size := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a transfer of %v bytes did not panic", size)
				}
			}()
			n.Transfer(c.Node(1), c.Node(2), size, func(error) {})
		}()
	}
	if got := n.TotalBytes(); got != 0 || n.ActiveFlows(1) != 0 {
		t.Fatalf("the refused transfers left TotalBytes = %v and %d flows on node 1", got, n.ActiveFlows(1))
	}
}

// TestMidInstantReadsSeeSettledState pins the observable contract of
// batched settling: endpoint changes only mark nodes dirty, but every read
// accessor flushes first, so state seen from inside an event callback is
// indistinguishable from the old settle-on-every-change schedule.
func TestMidInstantReadsSeeSettledState(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	n.Transfer(c.Node(1), c.Node(2), 1000, func(error) {})
	s.After(5, "probe", func() {
		// Progress is charged at settle points, never speculatively:
		// with nothing marked dirty since t=0, the half-finished flow
		// has no settled bytes yet (matching the old per-change
		// schedule, which also only settled on changes).
		if got := n.Consumed(1); got != 0 {
			t.Errorf("Consumed(src) before any change = %v, want 0", got)
		}
		// A new transfer marks node 1 dirty. Reads issued before the
		// end-of-instant flush must still observe it: the flush charges
		// flow 1's elapsed 500 B and re-shares the NIC.
		n.Transfer(c.Node(1), c.Node(3), 1000, func(error) {})
		if got := n.ActiveFlows(1); got != 2 {
			t.Errorf("ActiveFlows(src) after second transfer = %d, want 2", got)
		}
		if got := n.Consumed(1); math.Abs(got-500) > 1e-6 {
			t.Errorf("Consumed(src) after second transfer = %v, want 500", got)
		}
		if got := n.TotalBytes(); math.Abs(got-500) > 1e-6 {
			t.Errorf("TotalBytes mid-instant = %v, want 500", got)
		}
	})
	s.Run()
	// Flow 1: 500 B at full rate, then 500 B at half rate (5+10 s).
	// Flow 2: 1000 B, half rate until t=15 (500 B), full rate after (+5 s).
	if got := n.Consumed(1); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("Consumed(src) final = %v, want 2000", got)
	}
	if got := n.TotalBytes(); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("TotalBytes final = %v, want 2000", got)
	}
	if s.Now() != 20 {
		t.Fatalf("simulation ended at %v, want 20", s.Now())
	}
}

// TestDueNowSeesPositionReservedThisInstant covers the half of dueNow's
// shortcut that the fuzz programs cannot reach: at their 100 B/s a completion
// is never planned closer than 1e-8 s, which no clock under 1e8 s rounds away.
// At paper rates and t=1e6 it is routine. Two fetches share node 3's NIC; g is
// 0.006 bytes longer, so it is planned one ulp of the clock after f1. When f1
// finishes, g's share doubles and what it has left takes under half an ulp:
// its new position is the current instant, while the due-set — not yet
// re-keyed — still shows the head an ulp away. A transfer started on node 3
// from f1's done callback must not be deferred all the same.
func TestDueNowSeesPositionReservedThisInstant(t *testing.T) {
	s, c, n := testbed(nil, DefaultConfig())
	var gh Flow
	checked := false
	s.Schedule(1e6, "start", func() {
		n.Transfer(c.Node(1), c.Node(3), 1e6, func(error) {
			now := s.Now()
			g := n.lookup(gh)
			if _, head := n.dueHead(); g == nil || g.remaining <= 1e-6 || g.due.At() != now || head == now {
				t.Fatalf("set-up: g %+v, stored head %v, now %v", g, head, now)
			}
			if !n.dueNow(3) {
				t.Error("dueNow(3) = false with g's completion reserved at the current instant")
			}
			n.Transfer(c.Node(1), c.Node(3), 1e6, func(error) {})
			if n.inDirty[3] {
				t.Error("a change on the node of a flow due now was deferred to the barrier")
			}
			checked = true
		})
		gh = n.Transfer(c.Node(2), c.Node(3), 1e6+6e-3, func(error) {})
	})
	s.Run()
	if !checked {
		t.Fatal("f1 never completed")
	}
}

// TestHandleOfFlowFinishedInsideTransferIsDead: under a settle pass a mark
// settles on the spot, so a transfer of no more than the completion epsilon
// started from a done callback there is finished before Transfer returns. The
// handle must be the finished flow's, not carry the generation finish moved
// the object on to: that one is the slot's next flow's, which this handle
// would then cancel.
func TestHandleOfFlowFinishedInsideTransferIsDead(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	var inner Flow
	innerDone, underPass := false, false
	// Two equal fetches into node 3 end at t=2; the second is finished inside
	// the pass the first one's completion makes over node 3.
	done := func(error) {
		if n.settleDepth > 0 {
			underPass = true
			inner = n.Transfer(c.Node(1), c.Node(3), 1e-7, func(error) { innerDone = true })
			if !innerDone {
				t.Error("set-up: the inner transfer was not finished inside Transfer")
			}
		}
	}
	n.Transfer(c.Node(1), c.Node(3), 100, done)
	n.Transfer(c.Node(2), c.Node(3), 100, done)
	s.Run()
	if !underPass {
		t.Fatal("set-up: neither fetch finished under a settle pass")
	}
	if f := n.lookup(inner); f != nil {
		t.Fatalf("the handle of a flow that has ended resolves to %+v", f)
	}
	next := n.Transfer(c.Node(1), c.Node(3), 100, func(err error) {
		if err != nil {
			t.Errorf("the slot's next flow ended with %v", err)
		}
	})
	if next.slot == inner.slot {
		n.Cancel(inner)
	}
	s.Run()
}

// TestWalkLeavesANestedUnsettleStanding covers the one way a walk may not
// mark its node settled although every flow it refreshed can defer: a done
// callback under it brought a flow onto the node that cannot. The fuzz domains
// do not get there — it takes a cascade, which needs completion times exact to
// 1e-6 bytes, at a clock late enough for the floor to be above the epsilon —
// so the fabric is slow and the clock at 2e7 s: the floor is 1.8e-6 bytes and
// a flow of 1.5e-6 is above the one and under the other.
func TestWalkLeavesANestedUnsettleStanding(t *testing.T) {
	s, c, n := testbed(nil, simpleCfg())
	const start, size = 2e7, 1.5e-6
	checked := false
	s.Schedule(start, "start", func() {
		if floor := n.floorRate * start; size <= 1e-6 || size >= floor {
			t.Fatalf("set-up: %v bytes are not between the epsilon and the floor %v", size, floor)
		}
		// f0's completion passes node 3 and that walk finishes f1; f1's done
		// starts g under it, which unsettles node 3 and is planned on the
		// spot by a nested walk. f0's done runs when the outer walk is over.
		n.Transfer(c.Node(1), c.Node(3), size, func(error) {
			st := &n.nodes[3]
			if len(st.remote) != 1 || n.flows[st.remote[0]].deferred {
				t.Fatalf("set-up: node 3 carries %d flows, want g alone, not deferred", len(st.remote))
			}
			if st.settledAt == s.Now() {
				t.Error("node 3 is marked settled with a flow under the floor on it")
			}
			checked = true
		})
		n.Transfer(c.Node(2), c.Node(3), size, func(error) {
			if n.settleDepth == 0 {
				t.Fatal("set-up: f1 did not finish under the pass f0's completion made")
			}
			n.Transfer(c.Node(0), c.Node(3), size, func(error) {})
		})
	})
	s.Run()
	if !checked {
		t.Fatal("f0 never completed")
	}
}

// TestRatesPerInstantGrowWithFlowsPlusFinishes is the complexity gate of the
// pass/barrier split, read off the network's own counters (they repeat
// exactly: there is no noise band). The shuffle's worst instant: a sink carries
// F long flows and k equal fetches into it end at once, each done starting its
// replacement — BenchmarkFinishCascade's shape with follow-ups. Every finish
// passes the sink and so does every replacement: 2k passes over some F+k
// flows, and with a rate per flow per pass rate_refreshes read 556 for the
// instant at F=32, k=8 and 8 752 at F=128, k=32 before the split. With rates
// computed at the barrier it is one per flow the callback left in flight,
// however often each was passed — F+k, 40 and 160 — and the bound is F + 2k.
func TestRatesPerInstantGrowWithFlowsPlusFinishes(t *testing.T) {
	for _, sz := range []struct{ F, k int }{{32, 8}, {128, 8}, {32, 32}, {128, 32}} {
		s := sim.New()
		c := cluster.New(s, cluster.Config{DedicatedNodes: 1 + sz.F + sz.k})
		// Slow on purpose, as in BenchmarkFinishCascade: the siblings are
		// swept up by the first completion only while a completion time's
		// rounding error times the rate stays under the epsilon.
		n := New(s, c, Config{NodeBandwidth: 1e4, DiskBandwidth: 1e4, StallTimeout: 30})
		n.Instrument(metrics.New(10))
		sink := c.Node(0)
		for j := 0; j < sz.F; j++ {
			n.Transfer(c.Node(1+j), sink, 1e18, func(error) {})
		}
		finishes := 0
		for j := 0; j < sz.k; j++ {
			src := c.Node(1 + sz.F + j)
			n.Transfer(src, sink, 1e4/float64(sz.F+sz.k), func(error) {
				finishes++
				n.Transfer(src, sink, 1e18, func(error) {})
			})
		}
		s.RunUntil(0.5) // the arrivals are settled and the first completion queued
		before, fired := n.mRefreshes.Value(), s.Fired()
		s.RunUntil(2)
		if finishes != sz.k || s.Fired() != fired+1 || n.ActiveFlows(0) != sz.F+sz.k {
			t.Fatalf("F=%d k=%d: %d fetches ended in %d events leaving %d flows, want %d in 1 leaving %d",
				sz.F, sz.k, finishes, s.Fired()-fired, n.ActiveFlows(0), sz.k, sz.F+sz.k)
		}
		if got, bound := int(n.mRefreshes.Value()-before), sz.F+2*sz.k; got > bound {
			t.Errorf("F=%d k=%d: %d rates computed for the instant, want at most F+2k = %d", sz.F, sz.k, got, bound)
		} else {
			t.Logf("F=%d k=%d: %d rates computed for the instant (bound %d)", sz.F, sz.k, got, bound)
		}
	}
}
