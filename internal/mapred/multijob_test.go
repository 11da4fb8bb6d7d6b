package mapred

import (
	"testing"

	"repro/internal/dfs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// submitAt schedules a job submission at a simulation time and returns a
// pointer that is filled once the submission happens.
func (r *rig) submitAt(t *testing.T, at float64, cfg JobConfig) **Job {
	t.Helper()
	slot := new(*Job)
	r.s.Schedule(at, "test.submit", func() {
		j, err := r.jt.Submit(cfg, nil)
		if err != nil {
			t.Errorf("submit %s at t=%v: %v", cfg.Name, at, err)
			return
		}
		*slot = j
	})
	return slot
}

// TestTwoOverlappingJobsCompleteUnderChurn: two jobs submitted 50 s apart
// on a churning cluster must both finish under FIFO and under fair-share.
func TestTwoOverlappingJobsCompleteUnderChurn(t *testing.T) {
	outages := map[int][]trace.Interval{
		0: {{Start: 30, End: 300}, {Start: 700, End: 1000}},
		2: {{Start: 100, End: 450}},
		4: {{Start: 10, End: 120}, {Start: 500, End: 900}},
	}
	for _, pol := range []sched.Policy[*Job]{sched.FIFO[*Job](), sched.FairShare[*Job]()} {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			sc := DefaultSchedConfig(PolicyMOON)
			sc.JobPolicy = pol
			r := newRig(t, rigOpts{volatiles: 6, dedicated: 2, dfsMode: dfs.ModeMOON,
				sched: sc, outages: outages})
			cfgA, cfgB := smallJob("churn-a"), smallJob("churn-b")
			cfgA.NumMaps, cfgB.NumMaps = 8, 8
			r.stage(t, cfgA, dfs.Factor{D: 1, V: 2})
			r.stage(t, cfgB, dfs.Factor{D: 1, V: 2})

			ja, err := r.jt.Submit(cfgA, nil)
			if err != nil {
				t.Fatal(err)
			}
			jb := r.submitAt(t, 50, cfgB)
			r.s.RunUntil(2e5)

			if *jb == nil {
				t.Fatal("second job never submitted")
			}
			for _, j := range []*Job{ja, *jb} {
				if j.State() != JobSucceeded {
					t.Fatalf("%s: job %s state %v: %s", pol.Name(), j.cfg.Name, j.State(), j.failReason)
				}
				if !j.attempts.Balanced() {
					t.Fatalf("%s: job %s leaked attempts %+v", pol.Name(), j.cfg.Name, j.attempts)
				}
				if p := j.Profile(); p.Makespan <= 0 {
					t.Fatalf("%s: job %s makespan %v", pol.Name(), j.cfg.Name, p.Makespan)
				}
			}
			if got := r.jt.RunningJobs(); got != 0 {
				t.Fatalf("%d jobs still running after completion", got)
			}
		})
	}
}

// saturatingJob is a map-heavy job spanning three full waves of the test
// cluster's 12 map slots, so two concurrent copies contend for every slot.
func saturatingJob(name string) JobConfig {
	cfg := smallJob(name)
	cfg.NumMaps = 36
	cfg.NumReduces = 2
	cfg.MapCPU = 10
	cfg.SkipInputRead = true
	return cfg
}

// runContendingPair runs two identical saturating jobs submitted together
// under the given policy on a stable 6-node cluster and reports how many
// maps job 2 had completed at the instant job 1 finished its map phase,
// plus both finished jobs.
func runContendingPair(t *testing.T, pol sched.Policy[*Job]) (j2MapsAtJ1MapsDone int, j1, j2 *Job) {
	t.Helper()
	sched := DefaultSchedConfig(PolicyMOON)
	sched.JobPolicy = pol
	r := newRig(t, rigOpts{volatiles: 5, dedicated: 1, dfsMode: dfs.ModeMOON, sched: sched})
	cfgA, cfgB := saturatingJob("pair-a"), saturatingJob("pair-b")
	r.stage(t, cfgA, dfs.Factor{D: 1, V: 2})
	r.stage(t, cfgB, dfs.Factor{D: 1, V: 2})
	ja, err := r.jt.Submit(cfgA, nil)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := r.jt.Submit(cfgB, nil)
	if err != nil {
		t.Fatal(err)
	}
	captured := false
	stop := r.s.Ticker(1, "probe", func() {
		if !captured && ja.mapsCompleted == cfgA.NumMaps {
			j2MapsAtJ1MapsDone = jb.mapsCompleted
			captured = true
		}
	})
	r.s.RunUntil(1e5)
	stop()
	if ja.State() != JobSucceeded || jb.State() != JobSucceeded {
		t.Fatalf("%s: jobs not both done: %v / %v", pol.Name(), ja.State(), jb.State())
	}
	if !captured {
		t.Fatalf("%s: job 1 map phase never completed", pol.Name())
	}
	return j2MapsAtJ1MapsDone, ja, jb
}

// TestFairShareInterleavesFIFOSerializes: under FIFO the first job owns
// the cluster until its maps run out, so the second job has made almost no
// progress when job 1's map phase ends; under fair-share the two jobs
// split the slots and advance together.
func TestFairShareInterleavesFIFOSerializes(t *testing.T) {
	fifoJ2, fifoJ1, fifoJ2Job := runContendingPair(t, sched.FIFO[*Job]())
	fairJ2, fairJ1, fairJ2Job := runContendingPair(t, sched.FairShare[*Job]())

	// FIFO: job 2 starved during job 1's map phase, and job 1 finishes
	// well before job 2.
	if fifoJ2 > 4 {
		t.Errorf("FIFO: job 2 completed %d maps before job 1's map phase ended (want near-none)", fifoJ2)
	}
	if fifoJ1.FinishedAt() >= fifoJ2Job.FinishedAt() {
		t.Errorf("FIFO: job 1 finished at %v, after job 2 at %v",
			fifoJ1.FinishedAt(), fifoJ2Job.FinishedAt())
	}

	// Fair-share: job 2 advances alongside job 1...
	if fairJ2 < 12 {
		t.Errorf("fair-share: job 2 completed only %d maps before job 1's map phase ended (want interleaving)", fairJ2)
	}
	// ...which costs job 1 throughput relative to its FIFO run.
	if fairJ1.Profile().Makespan <= fifoJ1.Profile().Makespan {
		t.Errorf("fair-share job 1 makespan %v not above FIFO job 1 makespan %v",
			fairJ1.Profile().Makespan, fifoJ1.Profile().Makespan)
	}
	_ = fairJ2Job
}

// TestMultiJobDeterminism: a two-job fair-share run under churn is
// bit-reproducible.
func TestMultiJobDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		sc := DefaultSchedConfig(PolicyMOON)
		sc.JobPolicy = sched.FairShare[*Job]()
		r := newRig(t, rigOpts{volatiles: 4, dedicated: 1, dfsMode: dfs.ModeMOON, sched: sc,
			outages: map[int][]trace.Interval{
				0: {{Start: 30, End: 200}},
				2: {{Start: 55, End: 400}},
			}})
		cfgA, cfgB := smallJob("det-a"), smallJob("det-b")
		r.stage(t, cfgA, dfs.Factor{D: 1, V: 2})
		r.stage(t, cfgB, dfs.Factor{D: 1, V: 2})
		ja, err := r.jt.Submit(cfgA, nil)
		if err != nil {
			t.Fatal(err)
		}
		jb := r.submitAt(t, 20, cfgB)
		r.s.RunUntil(1e5)
		if ja.State() != JobSucceeded || *jb == nil || (*jb).State() != JobSucceeded {
			t.Fatal("jobs did not finish")
		}
		return ja.Profile().Makespan, (*jb).Profile().Makespan
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("non-deterministic multi-job run: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}

// TestWeightedFairProportionalSlots: with weights 3:1 the heavy job holds
// most of the cluster, so the light job trails it — starved harder than
// plain fair-share would starve it, but (unlike FIFO) never fully shut out
// while the heavy job still has pending work.
func TestWeightedFairProportionalSlots(t *testing.T) {
	weighted, heavyJob, lightJob := runContendingPair(t,
		sched.WeightedFair[*Job](map[string]float64{"pair-a": 3, "pair-b": 1}))
	fair, _, _ := runContendingPair(t, sched.FairShare[*Job]())

	if weighted >= fair {
		t.Errorf("weighted 3:1: light job completed %d maps before the heavy job's map phase ended; want fewer than fair-share's %d",
			weighted, fair)
	}
	if weighted == 0 {
		t.Error("weighted 3:1: light job completely starved (weighted fair must stay work-conserving)")
	}
	if heavyJob.State() != JobSucceeded || lightJob.State() != JobSucceeded {
		t.Fatalf("jobs not both done: %v / %v", heavyJob.State(), lightJob.State())
	}
	if heavyJob.FinishedAt() >= lightJob.FinishedAt() {
		t.Errorf("weighted 3:1: heavy job finished at %v, after the light job at %v",
			heavyJob.FinishedAt(), lightJob.FinishedAt())
	}
}

// TestWeightedFairOrder: the weighted policy finds a *Job's weight by its
// configured name. a runs 6 attempts at weight 3 (ratio 2), b runs 3 at
// weight 1 (ratio 3).
func TestWeightedFairOrder(t *testing.T) {
	a := &Job{cfg: JobConfig{Name: "a"}, attempts: sched.Attempts{Live: 6}}
	b := &Job{cfg: JobConfig{Name: "b"}, attempts: sched.Attempts{Live: 3}}
	got := sched.WeightedFair[*Job](map[string]float64{"a": 3}).Order(nil, []*Job{b, a})
	if got[0] != a || got[1] != b {
		t.Fatalf("weighted order wrong: %v", got)
	}
}

// TestStrictPriorityStarvesLowUntilHighDrains: under strict priority a
// high-priority job submitted alongside a low-priority one owns every
// slot offer until its pending work runs out, so the low job makes almost
// no map progress while the high job's map phase runs — regardless of
// submission order. Zero-priority ties degenerate to FIFO.
func TestStrictPriorityStarvesLowUntilHighDrains(t *testing.T) {
	sc := DefaultSchedConfig(PolicyMOON)
	sc.JobPolicy = sched.StrictPriority[*Job]()
	r := newRig(t, rigOpts{volatiles: 5, dedicated: 1, dfsMode: dfs.ModeMOON, sched: sc})
	// The *low*-priority job is submitted first: FIFO would hand it the
	// cluster, strict priority must not.
	cfgLow, cfgHigh := saturatingJob("prio-low"), saturatingJob("prio-high")
	cfgHigh.Priority = 5
	r.stage(t, cfgLow, dfs.Factor{D: 1, V: 2})
	r.stage(t, cfgHigh, dfs.Factor{D: 1, V: 2})
	jLow, err := r.jt.Submit(cfgLow, nil)
	if err != nil {
		t.Fatal(err)
	}
	jHigh, err := r.jt.Submit(cfgHigh, nil)
	if err != nil {
		t.Fatal(err)
	}
	lowMapsAtHighDone := -1
	stop := r.s.Ticker(1, "probe", func() {
		if lowMapsAtHighDone < 0 && jHigh.mapsCompleted == cfgHigh.NumMaps {
			lowMapsAtHighDone = jLow.mapsCompleted
		}
	})
	r.s.RunUntil(1e5)
	stop()
	if jLow.State() != JobSucceeded || jHigh.State() != JobSucceeded {
		t.Fatalf("jobs not both done: %v / %v", jLow.State(), jHigh.State())
	}
	if lowMapsAtHighDone < 0 {
		t.Fatal("high-priority job's map phase never completed")
	}
	// The low job holds the slots it won before the high job arrived (no
	// preemption), but wins no offers afterwards: near-zero progress.
	if lowMapsAtHighDone > 12 {
		t.Errorf("low-priority job completed %d maps before the high-priority map phase ended (want starvation)", lowMapsAtHighDone)
	}
	if jHigh.FinishedAt() >= jLow.FinishedAt() {
		t.Errorf("high-priority job finished at %v, after the low-priority job at %v",
			jHigh.FinishedAt(), jLow.FinishedAt())
	}
}

// TestFairShareOrder: a *Job ranks by its live attempts minus those
// stranded on suspended trackers, and ordering leaves the input slice as
// it was.
func TestFairShareOrder(t *testing.T) {
	a := &Job{attempts: sched.Attempts{Live: 3}}
	b := &Job{attempts: sched.Attempts{Live: 4, Inactive: 3}}
	running := []*Job{a, b}
	got := sched.FairShare[*Job]().Order(nil, running)
	if got[0] != b || got[1] != a {
		t.Fatalf("fair-share order wrong: %v", got)
	}
	if running[0] != a || running[1] != b {
		t.Fatal("input slice mutated")
	}
}
