package mapred

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rig assembles a full stack: cluster + network + DFS + JobTracker.
type rig struct {
	s   *sim.Simulation
	c   *cluster.Cluster
	net *netmodel.Network
	fs  *dfs.FileSystem
	jt  *JobTracker
}

type rigOpts struct {
	volatiles int
	dedicated int
	outages   map[int][]trace.Interval
	dfsMode   dfs.Mode
	sched     SchedConfig
	horizon   float64
	netCfg    netmodel.Config
}

func newRig(t *testing.T, o rigOpts) *rig {
	t.Helper()
	if o.horizon == 0 {
		o.horizon = 1e6
	}
	if o.netCfg.NodeBandwidth == 0 {
		o.netCfg = netmodel.Config{NodeBandwidth: 1e6, DiskBandwidth: 4e6, StallTimeout: 60}
	}
	s := sim.New()
	traces := make([]trace.Trace, o.volatiles)
	for i := range traces {
		traces[i] = trace.Trace{Duration: o.horizon, Outages: o.outages[i]}
	}
	c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: o.dedicated})
	net := netmodel.New(s, c, o.netCfg)
	dcfg := dfs.DefaultConfig(o.dfsMode)
	dcfg.BlockSize = 1e6
	f, err := dfs.New(s, c, net, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	jt, err := NewJobTracker(s, c, f, net, o.sched)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{s: s, c: c, net: net, fs: f, jt: jt}
}

// smallJob: 4 maps, 2 reduces, short compute, 1 MB blocks.
func smallJob(name string) JobConfig {
	return JobConfig{
		Name:               name,
		NumMaps:            4,
		NumReduces:         2,
		InputFile:          "input-" + name,
		MapCPU:             10,
		ReduceCPU:          10,
		IntermediatePerMap: 2e5,
		IntermediateClass:  dfs.Opportunistic,
		IntermediateFactor: dfs.Factor{V: 1},
		OutputPerReduce:    2e5,
		OutputFactor:       dfs.Factor{D: 1, V: 1},
	}
}

func (r *rig) stage(t *testing.T, cfg JobConfig, factor dfs.Factor) {
	t.Helper()
	if _, err := r.fs.CreateStaged(cfg.InputFile, float64(cfg.NumMaps)*1e6, dfs.Reliable, factor); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) runJob(t *testing.T, cfg JobConfig, horizon float64) *Job {
	t.Helper()
	var done *Job
	j, err := r.jt.Submit(cfg, func(j *Job) { done = j })
	if err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(horizon)
	if done == nil {
		t.Fatalf("job did not finish by t=%v (state %v, maps %d/%d, reduces %d/%d)",
			horizon, j.state, j.mapsCompleted, len(j.maps), j.reducesCompleted, len(j.reduces))
	}
	return done
}

func TestJobCompletesOnStableCluster(t *testing.T) {
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 2, dfsMode: dfs.ModeMOON,
		sched: DefaultSchedConfig(PolicyMOON)})
	cfg := smallJob("j1")
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	j := r.runJob(t, cfg, 1e5)
	if j.State() != JobSucceeded {
		t.Fatalf("job state %v: %s", j.State(), j.FailReason())
	}
	p := j.Profile()
	if p.Makespan <= 0 {
		t.Fatalf("makespan %v", p.Makespan)
	}
	if p.AvgMapTime < 10 {
		t.Fatalf("avg map time %v < compute time 10", p.AvgMapTime)
	}
	// Output files committed and fully replicated.
	for _, rt := range j.reduces {
		if rt.Output() == "" {
			t.Fatal("reduce has no output")
		}
		if !r.fs.FileFullyReplicated(rt.Output()) {
			t.Fatalf("output %s not fully replicated", rt.Output())
		}
		if r.fs.File(rt.Output()).Class != dfs.Reliable {
			t.Fatal("output not committed to reliable")
		}
	}
}

func TestJobCompletesUnderHadoopPolicy(t *testing.T) {
	r := newRig(t, rigOpts{volatiles: 6, dedicated: 0, dfsMode: dfs.ModeHadoop,
		sched: DefaultSchedConfig(PolicyHadoop)})
	cfg := smallJob("h1")
	cfg.IntermediateFactor = dfs.Factor{V: 1}
	cfg.OutputFactor = dfs.Factor{V: 2}
	r.stage(t, cfg, dfs.Factor{V: 2})
	j := r.runJob(t, cfg, 1e5)
	if j.State() != JobSucceeded {
		t.Fatalf("job state %v: %s", j.State(), j.FailReason())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		r := newRig(t, rigOpts{volatiles: 4, dedicated: 1, dfsMode: dfs.ModeMOON,
			sched: DefaultSchedConfig(PolicyMOON),
			outages: map[int][]trace.Interval{
				0: {{Start: 30, End: 200}},
				2: {{Start: 55, End: 400}},
			}})
		cfg := smallJob("d1")
		r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
		return r.runJob(t, cfg, 1e5).Profile().Makespan
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic makespans: %v vs %v", a, b)
	}
}

func TestSubmitValidation(t *testing.T) {
	r := newRig(t, rigOpts{volatiles: 2, dedicated: 1, dfsMode: dfs.ModeMOON,
		sched: DefaultSchedConfig(PolicyMOON)})
	cfg := smallJob("v1")
	if _, err := r.jt.Submit(cfg, nil); err == nil || !strings.Contains(err.Error(), "not staged") {
		t.Fatalf("unstaged input accepted: %v", err)
	}
	r.stage(t, cfg, dfs.Factor{D: 1, V: 1})
	if _, err := r.jt.Submit(cfg, nil); err != nil {
		t.Fatal(err)
	}
	// A concurrent job with the same name would collide in the DFS
	// (attempt outputs are named after the job) and is rejected.
	if _, err := r.jt.Submit(cfg, nil); err == nil || !strings.Contains(err.Error(), "already running") {
		t.Fatalf("duplicate-name concurrent job: %v", err)
	}
	// A distinct concurrent job enqueues and competes for slots.
	cfg2 := smallJob("v2")
	r.stage(t, cfg2, dfs.Factor{D: 1, V: 1})
	if _, err := r.jt.Submit(cfg2, nil); err != nil {
		t.Fatalf("concurrent submission rejected: %v", err)
	}
	if got := r.jt.RunningJobs(); got != 2 {
		t.Fatalf("running jobs %d, want 2", got)
	}
	bad := cfg
	bad.NumMaps = 0
	if _, err := r.jt.Submit(bad, nil); err == nil {
		t.Fatal("zero-map job accepted")
	}
}

func TestTrackerExpiryKillsAndReschedules(t *testing.T) {
	// Node 0 suspends shortly after the job starts and stays away past
	// the tracker expiry; its tasks must be killed and re-run elsewhere.
	sched := DefaultSchedConfig(PolicyHadoop)
	sched.TrackerExpiry = 60
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 0, dfsMode: dfs.ModeHadoop, sched: sched,
		outages: map[int][]trace.Interval{0: {{Start: 5, End: 9e5}}}})
	cfg := smallJob("e1")
	cfg.MapCPU = 30
	cfg.OutputFactor = dfs.Factor{V: 2}
	r.stage(t, cfg, dfs.Factor{V: 3})
	j := r.runJob(t, cfg, 1e5)
	if j.State() != JobSucceeded {
		t.Fatalf("job state %v: %s", j.State(), j.FailReason())
	}
	p := j.Profile()
	if p.KilledMaps == 0 && p.KilledReduces == 0 {
		t.Fatal("expiry killed nothing despite a permanent outage")
	}
}

func TestMOONSuspensionMarksInactiveWithoutKilling(t *testing.T) {
	sched := DefaultSchedConfig(PolicyMOON)
	r := newRig(t, rigOpts{volatiles: 3, dedicated: 1, dfsMode: dfs.ModeMOON, sched: sched,
		outages: map[int][]trace.Interval{0: {{Start: 5, End: 300}}}})
	cfg := smallJob("s1")
	cfg.MapCPU = 600 // long enough that the outage hits mid-map
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	if _, err := r.jt.Submit(cfg, nil); err != nil {
		t.Fatal(err)
	}
	// After suspension detection (5 + 60) instances on node 0 are
	// inactive but alive.
	r.s.RunUntil(100)
	tt := r.jt.trackers[0]
	if !tt.suspected {
		t.Fatal("tracker not suspected after SuspensionInterval")
	}
	inactive := 0
	for _, in := range tt.running {
		if in.inactive {
			inactive++
		}
	}
	if inactive == 0 {
		t.Fatal("no instance marked inactive")
	}
	if r.jt.Job().killedMaps > 0 {
		t.Fatal("suspension killed instances")
	}
	// After the node resumes, instances reactivate.
	r.s.RunUntil(400)
	if tt.suspected {
		t.Fatal("tracker still suspected after resume")
	}
	for _, in := range tt.running {
		if in.inactive {
			t.Fatal("instance still inactive after resume")
		}
	}
}

func TestFrozenTaskGetsSpeculativeCopy(t *testing.T) {
	// MOON: a map whose only copy is suspended must receive a backup
	// copy even though Hadoop's progress criteria would not fire.
	sched := DefaultSchedConfig(PolicyMOON)
	r := newRig(t, rigOpts{volatiles: 3, dedicated: 1, dfsMode: dfs.ModeMOON, sched: sched,
		outages: map[int][]trace.Interval{0: {{Start: 5, End: 2000}}}})
	cfg := smallJob("f1")
	cfg.NumMaps = 6
	cfg.MapCPU = 300
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	if _, err := r.jt.Submit(cfg, nil); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(200) // suspension detected at ~65; backup issued at next tick
	// The tasks stranded on node 0 must have been unfrozen by speculative
	// copies: an inactive instance plus at least one active one.
	var stranded []*Task
	for _, mt := range r.jt.Job().maps {
		for _, in := range mt.instances {
			if in.tracker == r.jt.trackers[0] && in.inactive {
				stranded = append(stranded, mt)
				break
			}
		}
	}
	if len(stranded) == 0 {
		t.Fatal("no task stranded on the suspended tracker")
	}
	for _, mt := range stranded {
		if mt.completed {
			continue
		}
		if mt.frozen() {
			t.Fatalf("task %s still frozen: no backup copy issued", mt.ID())
		}
		if mt.activeInstances() == 0 {
			t.Fatalf("stranded task %s has no active copy", mt.ID())
		}
	}
	spec := 0
	for _, mt := range stranded {
		spec += mt.specLaunches
	}
	if spec == 0 {
		t.Fatal("no speculative copy issued for frozen tasks")
	}
}

// lossJob sets up the map-output-loss scenario: maps finish by ~t=8 with
// single-copy intermediate data (some of it on node 0), node 0 dies forever
// at t=10, and the 30-second heartbeat delays reduce launches until t=30 —
// so every fetch against node 0's outputs fails and the runtime must
// re-execute those maps.
func lossJob(name string) JobConfig {
	cfg := smallJob(name)
	cfg.MapCPU = 5
	cfg.ReduceCPU = 5
	cfg.NumMaps = 4
	cfg.IntermediateFactor = dfs.Factor{V: 1} // volatile-only, single copy
	return cfg
}

func TestMapOutputLossTriggersReexecutionMOON(t *testing.T) {
	sched := DefaultSchedConfig(PolicyMOON)
	sched.FetchRetryInterval = 5
	sched.HeartbeatInterval = 30
	sched.ReduceSlowstart = 1.0
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 1, dfsMode: dfs.ModeMOON, sched: sched,
		outages: map[int][]trace.Interval{0: {{Start: 10, End: 9e5}}}})
	cfg := lossJob("m1")
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	j := r.runJob(t, cfg, 2e5)
	if j.State() != JobSucceeded {
		t.Fatalf("job state %v: %s", j.State(), j.FailReason())
	}
	p := j.Profile()
	if p.MapInvalidations == 0 {
		t.Fatal("lost map outputs never invalidated")
	}
	if p.DuplicatedTasks == 0 {
		t.Fatal("re-execution not reflected in duplicated tasks")
	}
}

func TestMapOutputLossTriggersReexecutionHadoop(t *testing.T) {
	sched := DefaultSchedConfig(PolicyHadoop)
	sched.FetchRetryInterval = 5
	sched.HeartbeatInterval = 30
	sched.ReduceSlowstart = 1.0
	sched.TrackerExpiry = 3000 // keep expiry out of the picture
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 0, dfsMode: dfs.ModeHadoop, sched: sched,
		outages: map[int][]trace.Interval{0: {{Start: 10, End: 9e5}}}})
	cfg := lossJob("m2")
	cfg.OutputFactor = dfs.Factor{V: 2}
	r.stage(t, cfg, dfs.Factor{V: 3})
	j := r.runJob(t, cfg, 2e5)
	if j.State() != JobSucceeded {
		t.Fatalf("job state %v: %s", j.State(), j.FailReason())
	}
	if j.Profile().MapInvalidations == 0 {
		t.Fatal("lost map outputs never invalidated under the >50% reporter rule")
	}
}

func TestHomestretchIssuesBackupCopies(t *testing.T) {
	// A tiny job (remaining tasks < 20% of slots) should replicate every
	// remaining task to R=2 active copies under MOON.
	sched := DefaultSchedConfig(PolicyMOON)
	r := newRig(t, rigOpts{volatiles: 6, dedicated: 2, dfsMode: dfs.ModeMOON, sched: sched})
	cfg := smallJob("hs1")
	cfg.NumMaps = 2
	cfg.NumReduces = 1
	cfg.MapCPU = 200
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	if _, err := r.jt.Submit(cfg, nil); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(100)
	for _, mt := range r.jt.Job().maps {
		if mt.completed {
			continue
		}
		if mt.activeInstances() < 2 && !mt.hasActiveDedicatedCopy() {
			t.Fatalf("map %s has %d active copies in homestretch", mt.ID(), mt.activeInstances())
		}
	}
}

func TestHybridPrefersDedicatedForSpeculation(t *testing.T) {
	sched := DefaultSchedConfig(PolicyMOON)
	sched.Hybrid = true
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 2, dfsMode: dfs.ModeMOON, sched: sched})
	cfg := smallJob("hy1")
	cfg.NumMaps = 2
	cfg.NumReduces = 1
	cfg.MapCPU = 200
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	if _, err := r.jt.Submit(cfg, nil); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(100)
	// In homestretch from the start; with Hybrid, speculative copies go
	// to dedicated trackers first.
	spec := 0
	for _, mt := range r.jt.Job().maps {
		for _, in := range mt.instances {
			if in.speculative && in.running() && in.node.IsDedicated() {
				spec++
			}
		}
	}
	if spec == 0 {
		t.Fatal("no speculative copy on a dedicated node under Hybrid")
	}
	// Tasks with an active dedicated copy must not receive further
	// homestretch copies.
	for _, mt := range r.jt.Job().maps {
		if mt.hasActiveDedicatedCopy() && mt.activeInstances() > 2 {
			t.Fatalf("dedicated-backed task %s over-replicated: %d copies", mt.ID(), mt.activeInstances())
		}
	}
}

func TestSpeculativeCapHadoop(t *testing.T) {
	// Hadoop never runs more than 1 + SpeculativeCap copies of a task.
	sched := DefaultSchedConfig(PolicyHadoop)
	r := newRig(t, rigOpts{volatiles: 8, dedicated: 0, dfsMode: dfs.ModeHadoop, sched: sched,
		outages: map[int][]trace.Interval{
			0: {{Start: 20, End: 9e5}},
			1: {{Start: 20, End: 9e5}},
		}})
	cfg := smallJob("c1")
	cfg.MapCPU = 120
	cfg.OutputFactor = dfs.Factor{V: 2}
	r.stage(t, cfg, dfs.Factor{V: 3})
	if _, err := r.jt.Submit(cfg, nil); err != nil {
		t.Fatal(err)
	}
	probe := func() {
		for _, mt := range r.jt.Job().maps {
			if mt.runningInstances() > 1+sched.SpeculativeCap {
				t.Errorf("map %s has %d running copies (cap %d)", mt.ID(),
					mt.runningInstances(), 1+sched.SpeculativeCap)
			}
		}
	}
	for _, at := range []float64{100, 200, 400, 700} {
		at := at
		r.s.Schedule(at, "probe", probe)
	}
	r.s.RunUntil(1000)
}

func TestProfileCounters(t *testing.T) {
	r := newRig(t, rigOpts{volatiles: 4, dedicated: 1, dfsMode: dfs.ModeMOON,
		sched: DefaultSchedConfig(PolicyMOON)})
	cfg := smallJob("p1")
	r.stage(t, cfg, dfs.Factor{D: 1, V: 2})
	j := r.runJob(t, cfg, 1e5)
	p := j.Profile()
	if p.Job != "p1" || p.State != JobSucceeded {
		t.Fatalf("profile header %+v", p)
	}
	if p.AvgShuffleTime <= 0 || p.AvgReduceTime <= 0 {
		t.Fatalf("profile times %+v", p)
	}
	// A quiet cluster needs no failure-driven duplicates; MOON's
	// homestretch may still proactively copy tail tasks (up to R-1 extra
	// copies of each remaining task).
	maxHomestretch := (DefaultSchedConfig(PolicyMOON).HomestretchR - 1) *
		(cfg.NumMaps + cfg.NumReduces)
	if p.DuplicatedTasks > maxHomestretch {
		t.Fatalf("duplicated tasks %d exceed homestretch budget %d", p.DuplicatedTasks, maxHomestretch)
	}
	if p.MapInvalidations != 0 {
		t.Fatalf("map invalidations on a stable cluster: %d", p.MapInvalidations)
	}
}

func TestTaskTypeAndStateStrings(t *testing.T) {
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Fatal("TaskType strings")
	}
	if PolicyMOON.String() != "moon" || PolicyHadoop.String() != "hadoop" {
		t.Fatal("Policy strings")
	}
	for s, want := range map[JobState]string{
		JobRunning: "running", JobCommitting: "committing",
		JobSucceeded: "succeeded", JobFailed: "failed",
	} {
		if s.String() != want {
			t.Fatalf("JobState(%d) = %q", int(s), s.String())
		}
	}
}

func TestSchedConfigValidate(t *testing.T) {
	good := DefaultSchedConfig(PolicyMOON)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.SuspensionInterval = bad.TrackerExpiry
	if bad.Validate() == nil {
		t.Fatal("suspension >= expiry accepted")
	}
	for _, tc := range []struct {
		name   string
		mutate func(*SchedConfig)
	}{
		{"zero slots", func(c *SchedConfig) { c.MapSlotsPerNode = 0 }},
		{"zero tracker expiry", func(c *SchedConfig) { c.TrackerExpiry, c.SuspensionInterval = 0, -1 }},
		{"negative homestretch R", func(c *SchedConfig) { c.HomestretchR = -1 }},
		{"negative speculative cap", func(c *SchedConfig) { c.SpeculativeCap = -1 }},
		{"negative slot fraction", func(c *SchedConfig) { c.SpecSlotFraction = -0.1 }},
	} {
		bad = good
		tc.mutate(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
