package mapred

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/netmodel"
	"repro/internal/sched"
	"repro/internal/sim"
)

// JobTracker is the master: it owns the task trackers, assigns tasks on
// heartbeats, detects suspended and dead trackers, drives speculative
// execution under the configured policy, and reacts to fetch failures.
//
// The tracker schedules a queue of concurrently running jobs: Submit
// enqueues (it never rejects a job because another is running), and the
// configured SchedPolicy — FIFO, fair-share, weighted-fair or
// strict-priority — arbitrates every free slot between the running jobs.
// Queueing and arbitration are delegated to the backend-agnostic
// scheduling core (internal/sched), the same code the live goroutine
// engine schedules with. All per-job bookkeeping (tasks, fetch-failure
// reporters, schedule sequence, commit polling) lives on the Job, so jobs
// are fully independent; with a single submitted job the tracker behaves
// exactly like the paper's one-job-at-a-time evaluation harness.
type JobTracker struct {
	sim *sim.Simulation
	cl  *cluster.Cluster
	fs  *dfs.FileSystem
	net *netmodel.Network
	cfg SchedConfig

	trackers []*TaskTracker
	// hybridOrder lists trackers dedicated-first, precomputed once (the
	// fleet is fixed) so the heartbeat's speculative pass never allocates.
	hybridOrder []*TaskTracker

	// queue holds every submitted job in submission order (terminal jobs
	// included, so callers can read profiles after completion) and
	// computes the policy's slot-offer order with reused scratch.
	// Policies receive runnable jobs in submission order, so "tie-break
	// by submission order" falls out of sort stability.
	queue *sched.Queue[*Job]

	collector *metrics.Collector
	inst      jtInstruments

	// Tick-scoped caches (see tickcache.go). Valid only between beginTick
	// and endTick; mut-guarded entries are additionally discarded when
	// tickMut moves (a detach or map-output invalidation ran mid-tick).
	inTick       bool
	tickMut      uint64
	slotsCached  bool
	cachedSlots  int
	specCached   bool
	specMut      uint64
	cachedSpec   int
	noPending    [2]bool // per TaskType: no job has a pending task
	noPendingMut [2]uint64
	noSpec       [2]bool // per TaskType: no tracker can get a backup copy
	noSpecMut    [2]uint64
}

// jtInstruments are the scheduler's metric handles: slot occupancy per
// heartbeat, launch/speculation timelines, and speculative-outcome
// counters. Per-job instruments (queue wait, makespan) are created at
// Submit, scoped by job name. Nil handles no-op.
type jtInstruments struct {
	slotOcc      *metrics.Series
	runningJobs  *metrics.Series
	launches     *metrics.Counter
	specIssued   *metrics.Counter
	specWon      *metrics.Counter
	specWasted   *metrics.Counter
	kills        *metrics.Counter
	invalidated  *metrics.Counter
	fetchReports *metrics.Counter
	// Task-duration distributions (launch → success of each winning
	// attempt), one histogram per task type — the simulated counterpart
	// of the live engine's task_duration_seconds.
	mapDur    *metrics.Histogram
	reduceDur *metrics.Histogram
}

// Instrument registers MapReduce-layer observability on c: a sampled
// slot-occupancy series (fraction of live execution slots in use, observed
// every heartbeat — the paper's slot-utilization-under-churn view), running
// job counts, task-launch and speculative timelines, speculative outcomes
// (won vs wasted), kills, map-output invalidations and fetch-failure
// reports, plus per-job queue-wait and makespan gauges. Collection is
// passive: scheduling decisions never read an instrument.
func (jt *JobTracker) Instrument(c *metrics.Collector) {
	if c == nil {
		return
	}
	jt.collector = c
	jt.inst = jtInstruments{
		slotOcc:      c.SampleSeries(metrics.LayerMapred, "slot_occupancy", ""),
		runningJobs:  c.SampleSeries(metrics.LayerMapred, "running_jobs", ""),
		launches:     c.TimedCounter(metrics.LayerMapred, "task_launches", ""),
		specIssued:   c.TimedCounter(metrics.LayerMapred, "speculative_issued", ""),
		specWon:      c.Counter(metrics.LayerMapred, "speculative_won", ""),
		specWasted:   c.Counter(metrics.LayerMapred, "speculative_wasted", ""),
		kills:        c.Counter(metrics.LayerMapred, "attempts_killed", ""),
		invalidated:  c.Counter(metrics.LayerMapred, "map_output_invalidations", ""),
		fetchReports: c.TimedCounter(metrics.LayerMapred, "fetch_failure_reports", ""),
		mapDur:       c.Histogram(metrics.LayerMapred, "task_duration_seconds", "map"),
		reduceDur:    c.Histogram(metrics.LayerMapred, "task_duration_seconds", "reduce"),
	}
}

// NewJobTracker wires the runtime to the cluster, DFS and network.
func NewJobTracker(s *sim.Simulation, cl *cluster.Cluster, fs *dfs.FileSystem, net *netmodel.Network, cfg SchedConfig) (*JobTracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	jt := &JobTracker{sim: s, cl: cl, fs: fs, net: net, cfg: cfg}
	// The queue arbitrates with the configured policy (nil = FIFO); only
	// running jobs receive slots (committing jobs occupy no slots).
	jt.queue = sched.NewQueue(cfg.JobPolicy, func(j *Job) bool { return j.state == JobRunning })
	for _, n := range cl.Nodes {
		tt := &TaskTracker{node: n, mapSlots: cfg.MapSlotsPerNode, reduceSlots: cfg.ReduceSlotsPerNode}
		jt.trackers = append(jt.trackers, tt)
		node := n
		n.Watch(func(_ *cluster.Node, available bool) { jt.trackerChanged(node, available) })
	}
	jt.hybridOrder = append(jt.hybridOrder, jt.dedicatedTrackers()...)
	jt.hybridOrder = append(jt.hybridOrder, jt.volatileTrackers()...)
	s.Ticker(cfg.HeartbeatInterval, "jt.heartbeat", jt.tick)
	return jt, nil
}

// Submit validates and enqueues a job; it competes for slots immediately
// and on every subsequent heartbeat. Concurrently running jobs share the
// cluster under the tracker's SchedPolicy. onDone fires when the job
// succeeds or fails.
func (jt *JobTracker) Submit(cfg JobConfig, onDone func(*Job)) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !jt.fs.Exists(cfg.InputFile) {
		return nil, fmt.Errorf("mapred: input file %q not staged", cfg.InputFile)
	}
	j := &Job{cfg: cfg, submittedAt: jt.sim.Now(), onDone: onDone}
	if jt.collector != nil {
		j.mQueueWait = jt.collector.Gauge(metrics.LayerMapred, "queue_wait_seconds", cfg.Name)
		j.mMakespan = jt.collector.Gauge(metrics.LayerMapred, "makespan_seconds", cfg.Name)
	}
	for i := 0; i < cfg.NumMaps; i++ {
		j.maps = append(j.maps, &Task{Type: MapTask, Index: i, job: j})
	}
	for i := 0; i < cfg.NumReduces; i++ {
		j.reduces = append(j.reduces, &Task{Type: ReduceTask, Index: i, job: j})
	}
	j.fetchReporters = make([]map[int]bool, cfg.NumMaps)
	j.mapReady = make(mapSet, (cfg.NumMaps+63)/64)
	if err := jt.queue.Submit(j); err != nil {
		// Attempt output files are named after the job, so two live jobs
		// with one name would collide in the DFS.
		return nil, fmt.Errorf("mapred: %w", err)
	}
	jt.tick() // assign immediately rather than waiting a heartbeat
	return j, nil
}

// Job returns the most recently submitted job (may be finished), or nil
// before the first submission.
func (jt *JobTracker) Job() *Job {
	j, ok := jt.queue.Latest()
	if !ok {
		return nil
	}
	return j
}

// Jobs returns every submitted job in submission order, terminal jobs
// included (read-only view).
func (jt *JobTracker) Jobs() []*Job { return jt.queue.Jobs() }

// RunningJobs counts jobs that have not reached a terminal state.
func (jt *JobTracker) RunningJobs() int { return jt.queue.Running() }

// Policy returns the active slot-arbitration policy.
func (jt *JobTracker) Policy() SchedPolicy { return jt.queue.Policy() }

// --- tracker liveness -------------------------------------------------------

func (jt *JobTracker) trackerChanged(n *cluster.Node, available bool) {
	tt := jt.trackers[n.ID]
	if !available {
		// Physical effect: compute on the node freezes immediately.
		for _, in := range tt.running {
			jt.pauseCompute(in)
		}
		// Master-side detection, driven by missing heartbeats.
		if jt.cfg.SuspensionInterval > 0 {
			tt.suspendEv = jt.sim.After(jt.cfg.SuspensionInterval, "jt.suspect", func() {
				tt.suspected = true
				for _, in := range tt.running {
					if !in.inactive {
						in.inactive = true
						in.task.job.attempts.Inactive++
					}
				}
			})
		}
		tt.expireEv = jt.sim.After(jt.cfg.TrackerExpiry, "jt.expire", func() {
			tt.expired = true
			tt.suspected = false
			for _, in := range append([]*Instance(nil), tt.running...) {
				jt.killInstance(in, "tracker expired")
			}
		})
		return
	}
	jt.sim.Cancel(tt.suspendEv)
	jt.sim.Cancel(tt.expireEv)
	tt.suspendEv, tt.expireEv = sim.Event{}, sim.Event{}
	tt.expired = false
	tt.suspected = false
	for _, in := range tt.running {
		if in.inactive {
			in.inactive = false
			in.task.job.attempts.Inactive--
		}
		jt.resumeCompute(in)
		if in.shuffle != nil && in.phase == phaseShuffle {
			in.shuffle.pump()
		}
	}
}

// availableSlots counts execution slots on live trackers (map + reduce),
// the paper's base for both the speculative cap and the homestretch
// threshold. Within a tick the count is computed once: availability and
// expiry only change through sim events, which never fire mid-tick.
func (jt *JobTracker) availableSlots() int {
	if jt.inTick && jt.slotsCached {
		return jt.cachedSlots
	}
	n := jt.countAvailableSlots()
	if jt.inTick {
		jt.cachedSlots, jt.slotsCached = n, true
	}
	return n
}

// speculativeActive counts running, *active* speculative attempts of one
// job. Inactive copies (stranded on suspended trackers) do not consume the
// speculative budget — otherwise frozen speculative copies would wedge the
// cap and block exactly the backups that frozen-task handling exists to
// issue.
func (jt *JobTracker) speculativeActive(j *Job) int {
	n := 0
	for _, tasks := range [2][]*Task{j.maps, j.reduces} {
		for _, t := range tasks {
			for _, in := range t.instances {
				if in.running() && in.speculative && !in.inactive {
					n++
				}
			}
		}
	}
	return n
}

// speculativeActiveTotal sums active speculative attempts across every
// live job: MOON's SpecSlotFraction budget bounds the *fleet's* backup
// capacity, so concurrent jobs share it rather than multiplying it. With
// one job this equals speculativeActive of that job.
//
// Within a tick the scan runs once and the count is then maintained
// incrementally: launch bumps it for each speculative start (the only way
// it grows mid-tick), and any detach invalidates it via tickMut (the only
// way it shrinks mid-tick).
func (jt *JobTracker) speculativeActiveTotal() int {
	if jt.inTick && jt.specCached && jt.specMut == jt.tickMut {
		return jt.cachedSpec
	}
	n := 0
	for _, j := range jt.queue.Jobs() {
		if !j.Done() {
			n += jt.speculativeActive(j)
		}
	}
	if jt.inTick {
		jt.cachedSpec, jt.specCached, jt.specMut = n, true, jt.tickMut
	}
	return n
}

// --- assignment --------------------------------------------------------------

// jobOrder returns the schedulable jobs in the policy's slot-offer order.
// It is recomputed on every offer: fair-share ranks by live attempts,
// which change with each launch, and a job may fail or start committing
// mid-tick. The queue reuses its scratch, so the heartbeat never
// allocates per offer.
func (jt *JobTracker) jobOrder() []*Job { return jt.queue.Order() }

// tick is the heartbeat: fill free slots with pending work, then with
// speculative copies per policy, across every running job.
//
// Both passes short-circuit through the tick caches: once a pick proves no
// further launch of its kind is possible on any tracker (a fact that stays
// true until a mutation bumps tickMut), the remaining trackers are skipped.
// The skipped iterations would have launched nothing and have no side
// effects, so the short-circuit is unobservable — it just turns the idle
// part of the heartbeat from O(trackers × tasks) into O(1).
func (jt *JobTracker) tick() {
	jt.beginTick()
	defer jt.endTick()
	jt.observeOccupancy()
	if len(jt.jobOrder()) == 0 {
		return
	}
	// Pass 1: pending (never-running) tasks, volatile and dedicated
	// trackers alike, in node order; each free slot is offered to the
	// jobs in policy order.
	for _, tt := range jt.trackers {
		if jt.pendingExhausted(MapTask) && jt.pendingExhausted(ReduceTask) {
			break
		}
		for !jt.pendingExhausted(MapTask) && tt.freeSlots(MapTask) > 0 {
			t := jt.pickPendingMapAny(tt)
			if t == nil {
				jt.markPendingExhausted(MapTask)
				break
			}
			jt.launch(t, tt, false)
		}
		for !jt.pendingExhausted(ReduceTask) && tt.freeSlots(ReduceTask) > 0 {
			t := jt.pickPendingReduceAny()
			if t == nil {
				jt.markPendingExhausted(ReduceTask)
				break
			}
			jt.launch(t, tt, false)
		}
	}
	// Pass 2: speculative copies. Under MOON-Hybrid dedicated slots are
	// offered first so backup copies land on reliable machines.
	order := jt.trackers
	if jt.cfg.Policy == PolicyMOON && jt.cfg.Hybrid {
		order = jt.hybridOrder
	}
	for _, tt := range order {
		if jt.specExhausted(MapTask) && jt.specExhausted(ReduceTask) {
			break
		}
		for !jt.specExhausted(MapTask) && tt.freeSlots(MapTask) > 0 {
			t := jt.pickSpeculativeAny(MapTask, tt)
			if t == nil {
				break
			}
			jt.launch(t, tt, true)
		}
		for !jt.specExhausted(ReduceTask) && tt.freeSlots(ReduceTask) > 0 {
			t := jt.pickSpeculativeAny(ReduceTask, tt)
			if t == nil {
				break
			}
			jt.launch(t, tt, true)
		}
	}
}

// observeOccupancy samples slot occupancy and the running-job count into
// the metrics bus once per heartbeat. It is a pure read of tracker state,
// skipped entirely when no collector is attached.
func (jt *JobTracker) observeOccupancy() {
	if jt.inst.slotOcc == nil {
		return
	}
	total, used := jt.countOccupancy()
	now := jt.sim.Now()
	if total > 0 {
		jt.inst.slotOcc.Observe(now, float64(used)/float64(total))
	}
	jt.inst.runningJobs.Observe(now, float64(jt.RunningJobs()))
}

// pickPendingMapAny offers a free map slot to each job in policy order.
func (jt *JobTracker) pickPendingMapAny(tt *TaskTracker) *Task {
	for _, j := range jt.jobOrder() {
		if t := jt.pickPendingMap(j, tt); t != nil {
			return t
		}
	}
	return nil
}

// pickPendingReduceAny offers a free reduce slot to each job in policy
// order.
func (jt *JobTracker) pickPendingReduceAny() *Task {
	for _, j := range jt.jobOrder() {
		if t := jt.pickPendingReduce(j); t != nil {
			return t
		}
	}
	return nil
}

// pickSpeculativeAny offers a speculative slot to each job in policy
// order. The fleet-wide speculative count is computed once per offer (it
// only changes when a launch ends the offer) rather than once per job.
//
// When every job declines for tracker-independent reasons (global cap hit,
// precondition failed, empty candidate bases), the nil is recorded in the
// tick cache: launches only shrink candidate sets within a tick, so no
// later tracker could have received a copy either, and the rest of pass 2
// short-circuits. A nil caused by a tracker-local filter (the task already
// runs here) is never recorded — another tracker may still qualify.
func (jt *JobTracker) pickSpeculativeAny(typ TaskType, tt *TaskTracker) *Task {
	specActive := -1
	if jt.cfg.Policy != PolicyHadoop {
		specActive = jt.speculativeActiveTotal()
	}
	certain := true
	for _, j := range jt.jobOrder() {
		t, c := jt.pickSpeculative(j, typ, tt, specActive)
		if t != nil {
			return t
		}
		certain = certain && c
	}
	if certain {
		jt.markSpecExhausted(typ)
	}
	return nil
}

func (jt *JobTracker) dedicatedTrackers() []*TaskTracker {
	var out []*TaskTracker
	for _, tt := range jt.trackers {
		if tt.node.IsDedicated() {
			out = append(out, tt)
		}
	}
	return out
}

func (jt *JobTracker) volatileTrackers() []*TaskTracker {
	var out []*TaskTracker
	for _, tt := range jt.trackers {
		if !tt.node.IsDedicated() {
			out = append(out, tt)
		}
	}
	return out
}

// pickPendingMap returns the job's next never-running (or fully killed)
// map, preferring input-local tasks for the requesting tracker.
func (jt *JobTracker) pickPendingMap(j *Job, tt *TaskTracker) *Task {
	var firstAny *Task
	for _, t := range j.maps {
		if t.completed || t.runningInstances() > 0 {
			continue
		}
		if jt.isInputLocal(t, tt.node) {
			return t
		}
		if firstAny == nil {
			firstAny = t
		}
	}
	return firstAny
}

func (jt *JobTracker) isInputLocal(t *Task, n *cluster.Node) bool {
	return jt.fs.HasReplicaOn(dfs.BlockID{File: t.job.cfg.InputFile, Index: t.Index}, n.ID)
}

// pickPendingReduce returns the job's next never-running reduce once the
// slowstart threshold of completed maps is met.
func (jt *JobTracker) pickPendingReduce(j *Job) *Task {
	need := int(math.Ceil(jt.cfg.ReduceSlowstart * float64(j.cfg.NumMaps)))
	if j.mapsCompleted < need {
		return nil
	}
	for _, t := range j.reduces {
		if !t.completed && t.runningInstances() == 0 {
			return t
		}
	}
	return nil
}

// pickSpeculative selects a task of the job for a backup copy under the
// active policy. specActive is the precomputed fleet-wide active
// speculative count (unused under Hadoop). The second result reports, for
// a nil pick, whether the refusal was tracker-independent — i.e. whether
// offering any other tracker this tick would also come up empty.
func (jt *JobTracker) pickSpeculative(j *Job, typ TaskType, tt *TaskTracker, specActive int) (*Task, bool) {
	if jt.cfg.Policy == PolicyHadoop {
		return jt.pickSpeculativeHadoop(j, typ, tt)
	}
	return jt.pickSpeculativeMOON(j, typ, tt, specActive)
}

// tasksOf returns the job's task list of the given type.
func (jt *JobTracker) tasksOf(j *Job, typ TaskType) []*Task {
	if typ == MapTask {
		return j.maps
	}
	return j.reduces
}

// avgProgress is the mean progress over all of a job's tasks of a type
// (completed tasks count as 1) — Hadoop's straggler baseline.
func (jt *JobTracker) avgProgress(j *Job, typ TaskType) float64 {
	tasks := jt.tasksOf(j, typ)
	if len(tasks) == 0 {
		return 0
	}
	now := jt.sim.Now()
	sum := 0.0
	for _, t := range tasks {
		sum += t.progress(now)
	}
	return sum / float64(len(tasks))
}

// isStraggler applies Hadoop's two conditions: the task has been running
// for over a minute and lags the average progress by 0.2 or more.
func (jt *JobTracker) isStraggler(t *Task, avg float64) bool {
	if t.completed || t.runningInstances() == 0 {
		return false
	}
	now := jt.sim.Now()
	oldest := math.MaxFloat64
	for _, in := range t.instances {
		if in.running() && in.startedAt < oldest {
			oldest = in.startedAt
		}
	}
	if now-oldest < stragglerMinRuntime {
		return false
	}
	return t.progress(now) < avg-stragglerGap
}

// pickSpeculativeHadoop: stragglers in original scheduling order, one
// backup copy per task, maps preferring local input. Neither the
// precondition nor the candidate filter reads the offering tracker (input
// locality is only a preference), so a nil here is always
// tracker-independent.
func (jt *JobTracker) pickSpeculativeHadoop(j *Job, typ TaskType, tt *TaskTracker) (*Task, bool) {
	// Hadoop only speculates once every task of the type has been
	// scheduled.
	for _, t := range jt.tasksOf(j, typ) {
		if !t.completed && t.attempts == 0 {
			return nil, true
		}
	}
	avg := jt.avgProgress(j, typ)
	var candidates []*Task
	for _, t := range jt.tasksOf(j, typ) {
		if jt.isStraggler(t, avg) && t.runningInstances() < 1+jt.cfg.SpeculativeCap {
			candidates = append(candidates, t)
		}
	}
	if len(candidates) == 0 {
		return nil, true
	}
	sort.SliceStable(candidates, func(a, b int) bool {
		return candidates[a].scheduledOrder < candidates[b].scheduledOrder
	})
	if typ == MapTask {
		for _, t := range candidates {
			if jt.isInputLocal(t, tt.node) {
				return t, true
			}
		}
	}
	return candidates[0], true
}

// pickSpeculativeMOON: frozen tasks first (any number of copies), then slow
// tasks (respecting the per-task cap), then homestretch replication — all
// subject to the global cap of SpecSlotFraction × available slots, which
// is shared by every running job (concurrent jobs compete for the backup
// budget in policy order rather than each claiming a full budget). Under
// Hybrid, tasks that already have an active dedicated copy sort last and
// skip the homestretch.
func (jt *JobTracker) pickSpeculativeMOON(j *Job, typ TaskType, tt *TaskTracker, specActive int) (*Task, bool) {
	if float64(specActive) >= jt.cfg.SpecSlotFraction*float64(jt.availableSlots()) {
		return nil, true // the global cap binds every tracker alike
	}
	// blocked records a candidate that passed every tracker-independent
	// predicate but already runs on this tracker: a nil pick is then not
	// evidence that other trackers would also come up empty.
	blocked := false
	now := jt.sim.Now()
	runningOnTT := func(t *Task) bool {
		for _, in := range t.instances {
			if in.running() && in.tracker == tt {
				return true
			}
		}
		return false
	}
	// Each phase below offers its candidates to consider in task order and
	// takes the one it is left with: the first of those with the least
	// (dedicated copy, progress).
	var best *Task
	var bestDed int
	var bestProg float64
	consider := func(t *Task) {
		ded := 0
		if jt.cfg.Hybrid && t.hasActiveDedicatedCopy() {
			ded = 1
		}
		if p := t.progress(now); best == nil || ded < bestDed || (ded == bestDed && p < bestProg) {
			best, bestDed, bestProg = t, ded, p
		}
	}

	// 1) Frozen tasks: every copy inactive; replicate regardless of copy
	// count so progress can always be made.
	for _, t := range jt.tasksOf(j, typ) {
		if !t.frozen() {
			continue
		}
		if runningOnTT(t) {
			blocked = true
			continue
		}
		consider(t)
	}
	if best != nil {
		return best, true
	}

	// 2) Slow tasks: Hadoop's criteria with the per-task cap.
	avg := jt.avgProgress(j, typ)
	for _, t := range jt.tasksOf(j, typ) {
		if !jt.isStraggler(t, avg) || t.frozen() ||
			t.runningInstances() >= 1+jt.cfg.SpeculativeCap {
			continue
		}
		if runningOnTT(t) {
			blocked = true
			continue
		}
		consider(t)
	}
	if best != nil {
		return best, true
	}

	// 3) Homestretch: near job completion, keep >= R active copies of
	// every remaining task.
	if float64(j.remainingTasks()) < jt.cfg.HomestretchH/100*float64(jt.availableSlots()) {
		for _, t := range jt.tasksOf(j, typ) {
			if t.completed || t.runningInstances() == 0 {
				continue
			}
			if jt.cfg.Hybrid && t.hasActiveDedicatedCopy() {
				continue
			}
			if t.activeInstances() >= jt.cfg.HomestretchR {
				continue
			}
			if runningOnTT(t) {
				blocked = true
				continue
			}
			consider(t)
		}
		if best != nil {
			return best, true
		}
	}
	return nil, !blocked
}
