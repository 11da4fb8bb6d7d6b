package mapred

import (
	"testing"

	"repro/internal/dfs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestWordCountShapedJobUnderChurn runs a wordcount-shaped job (many maps,
// few reduces, small intermediate) under real churn on the MOON stack.
func TestWordCountShapedJobUnderChurn(t *testing.T) {
	outages := map[int][]trace.Interval{
		0: {{Start: 30, End: 300}, {Start: 700, End: 1000}},
		2: {{Start: 100, End: 450}},
		4: {{Start: 10, End: 120}, {Start: 500, End: 900}},
	}
	r := newRig(t, rigOpts{volatiles: 8, dedicated: 2, dfsMode: dfs.ModeMOON,
		sched: DefaultSchedConfig(PolicyMOON), outages: outages})
	cfg := JobConfig{
		Name:               "wcshape",
		NumMaps:            16,
		NumReduces:         3,
		InputFile:          "wc-in",
		MapCPU:             25,
		ReduceCPU:          10,
		IntermediatePerMap: 5e4,
		IntermediateClass:  dfs.Opportunistic,
		IntermediateFactor: dfs.Factor{D: 1, V: 1},
		OutputPerReduce:    1e5,
		OutputFactor:       dfs.Factor{D: 1, V: 2},
	}
	r.stage(t, cfg, dfs.Factor{D: 1, V: 3})
	j := r.runJob(t, cfg, 2e5)
	if j.State() != JobSucceeded {
		t.Fatalf("state %v: %s", j.State(), j.failReason)
	}
	for _, rt := range j.reduces {
		if !r.fs.FileFullyReplicated(rt.Output()) {
			t.Fatalf("output %s under-replicated at success", rt.Output())
		}
	}
}

// TestCommitPhaseWaitsForReplication verifies the MOON job-completion rule:
// the job stays in committing state until every output block reaches its
// factor.
func TestCommitPhaseWaitsForReplication(t *testing.T) {
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 2, dfsMode: dfs.ModeMOON,
		sched: DefaultSchedConfig(PolicyMOON)})
	// Force dedicated declines during the run so outputs lack their
	// dedicated copy at reduce completion and the commit has work to do.
	r.s.Schedule(0.5, "throttle", func() {
		r.fs.SetThrottledForTest(4, true)
		r.fs.SetThrottledForTest(5, true)
	})
	cfg := smallJob("commit1")
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	var sawCommitting bool
	j, err := r.jt.Submit(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := r.s.Ticker(1, "watch", func() {
		if j.State() == JobCommitting {
			sawCommitting = true
			// Release the dedicated tier so the top-up can proceed.
			r.fs.SetThrottledForTest(4, false)
			r.fs.SetThrottledForTest(5, false)
		}
	})
	r.s.RunUntil(1e5)
	stop()
	if j.State() != JobSucceeded {
		t.Fatalf("state %v: %s", j.State(), j.failReason)
	}
	if !sawCommitting {
		t.Skip("outputs met their factor immediately; commit was instantaneous")
	}
}

// TestHadoopStragglerSpeculation: a task crawling on a suspended node while
// its siblings finish must receive exactly one backup copy under Hadoop.
func TestHadoopStragglerSpeculation(t *testing.T) {
	sched := DefaultSchedConfig(PolicyHadoop)
	sched.TrackerExpiry = 3000 // expiry must not beat speculation
	r := newRig(t, rigOpts{volatiles: 6, dedicated: 0, dfsMode: dfs.ModeHadoop, sched: sched,
		outages: map[int][]trace.Interval{0: {{Start: 5, End: 2500}}}})
	cfg := smallJob("strag")
	cfg.NumMaps = 12 // two waves over 12 slots; node 0's maps strand
	cfg.MapCPU = 100
	cfg.OutputFactor = dfs.Factor{V: 2}
	r.stage(t, cfg, dfs.Factor{V: 3})
	if _, err := r.jt.Submit(cfg, nil); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(600)
	spec := 0
	for _, mt := range r.jt.Job().maps {
		spec += mt.specLaunches
	}
	if spec == 0 {
		t.Fatal("no speculative copy for stranded maps")
	}
	r.s.RunUntil(1e5)
	if r.jt.Job().State() != JobSucceeded {
		t.Fatalf("job state %v", r.jt.Job().State())
	}
}

// TestAvailableSlotsTracksChurn: slots on down trackers don't count, and
// availableSlots, read off the cluster's up-count, agrees at every
// heartbeat with a scan of the trackers that also skips expired ones. Node
// 2 stays down past TrackerExpiry, so its expiry event fires and kills the
// attempts stranded there before the node returns.
func TestAvailableSlotsTracksChurn(t *testing.T) {
	sched := DefaultSchedConfig(PolicyMOON)
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 1, dfsMode: dfs.ModeMOON,
		sched: sched,
		outages: map[int][]trace.Interval{
			0: {{Start: 10, End: 100}},
			1: {{Start: 10, End: 100}},
			2: {{Start: 10, End: sched.TrackerExpiry + 700}},
		}})
	if got := r.jt.availableSlots(); got != 5*4 {
		t.Fatalf("initial slots %d, want 20", got)
	}
	// liveSlotScan is the fleet walk availableSlots replaced: a tracker
	// counts while its node is up and its expiry event has not fired.
	liveSlotScan := func() int {
		total := 0
		for _, tt := range r.jt.trackers {
			expired := tt.expireEv != (sim.Event{}) && !tt.expireEv.Pending()
			if tt.node.Available() && !expired {
				total += sched.MapSlotsPerNode + sched.ReduceSlotsPerNode
			}
		}
		return total
	}
	beats := 0
	stop := r.s.Ticker(sched.HeartbeatInterval, "slotcheck", func() {
		beats++
		if got, want := r.jt.availableSlots(), liveSlotScan(); got != want {
			t.Fatalf("t=%v: availableSlots %d, tracker scan %d", r.s.Now(), got, want)
		}
	})
	defer stop()
	cfg := smallJob("slots")
	cfg.NumMaps = 10
	cfg.MapCPU = 5000 // node 2's maps and their backups outlive its expiry
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	if _, err := r.jt.Submit(cfg, nil); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(50)
	if got := r.jt.availableSlots(); got != 2*4 {
		t.Fatalf("slots during outage %d, want 8", got)
	}
	r.s.RunUntil(200)
	if got := r.jt.availableSlots(); got != 4*4 {
		t.Fatalf("slots after resume %d, want 16", got)
	}
	stranded := r.jt.trackers[2]
	if len(stranded.running) == 0 {
		t.Fatal("no attempt stranded on node 2")
	}
	r.s.RunUntil(10 + sched.TrackerExpiry + 10)
	if len(stranded.running) != 0 || stranded.node.Available() {
		t.Fatalf("expiry left %d attempts on node 2 (up %v)", len(stranded.running), stranded.node.Available())
	}
	r.s.RunUntil(sched.TrackerExpiry + 800)
	if got := r.jt.availableSlots(); got != 5*4 {
		t.Fatalf("slots after node 2 returned %d, want 20", got)
	}
	if beats < 600 {
		t.Fatalf("only %d heartbeats checked", beats)
	}
}

// TestReduceProgressThirds: the reduce progress score passes through the
// Hadoop thirds (shuffle ≤ 1/3, compute in (2/3, 1)).
func TestReduceProgressThirds(t *testing.T) {
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 1, dfsMode: dfs.ModeMOON,
		sched: DefaultSchedConfig(PolicyMOON)})
	cfg := smallJob("prog")
	cfg.ReduceCPU = 50
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	if _, err := r.jt.Submit(cfg, nil); err != nil {
		t.Fatal(err)
	}
	sawShuffle, sawCompute := false, false
	stop := r.s.Ticker(1, "probe", func() {
		for _, rt := range r.jt.Job().reduces {
			for _, in := range rt.instances {
				if !in.running() {
					continue
				}
				p := in.progress(r.s.Now())
				switch in.phase {
				case phaseShuffle:
					sawShuffle = true
					if p > 1.0/3+1e-9 {
						t.Errorf("shuffle progress %v > 1/3", p)
					}
				case phaseCompute:
					sawCompute = true
					if p < 2.0/3-1e-9 || p > 1+1e-9 {
						t.Errorf("compute progress %v outside (2/3,1]", p)
					}
				}
			}
		}
	})
	r.s.RunUntil(1e5)
	stop()
	if !sawShuffle || !sawCompute {
		t.Fatalf("phases not observed: shuffle=%v compute=%v", sawShuffle, sawCompute)
	}
}

// TestNumReducesZero: a map-only job succeeds when maps complete.
func TestNumReducesZero(t *testing.T) {
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 1, dfsMode: dfs.ModeMOON,
		sched: DefaultSchedConfig(PolicyMOON)})
	cfg := smallJob("maponly")
	cfg.NumReduces = 0
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	j := r.runJob(t, cfg, 1e5)
	if j.State() != JobSucceeded {
		t.Fatalf("map-only job state %v", j.State())
	}
}
