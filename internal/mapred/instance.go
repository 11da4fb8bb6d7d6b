package mapred

import (
	"fmt"

	"repro/internal/dfs"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// launch starts a new attempt of t on tt.
func (jt *JobTracker) launch(t *Task, tt *TaskTracker, speculative bool) *Instance {
	t.attempts++
	if t.attempts == 1 {
		t.job.scheduleSeq++
		t.scheduledOrder = t.job.scheduleSeq
		if t.job.scheduleSeq == 1 {
			// First launch of the whole job: the queue wait ends here.
			t.job.mQueueWait.Set(jt.sim.Now() - t.job.submittedAt)
		}
	}
	t.job.attempts.Live++
	jt.inst.launches.IncAt(jt.sim.Now())
	if speculative {
		t.specLaunches++
		jt.inst.specIssued.IncAt(jt.sim.Now())
		// Keep the tick's fleet-wide speculative count exact: the new
		// attempt starts active (the tracker is live to receive it).
		if jt.inTick && jt.specCached && jt.specMut == jt.tickMut {
			jt.cachedSpec++
		}
	}
	in := &Instance{
		task:        t,
		node:        tt.node,
		tracker:     tt,
		attempt:     t.attempts,
		startedAt:   jt.sim.Now(),
		speculative: speculative,
	}
	t.instances = append(t.instances, in)
	tt.running = append(tt.running, in)

	if t.Type == MapTask {
		jt.startMap(in)
	} else {
		jt.startReduce(in)
	}
	return in
}

// startMap reads the input block (free when a replica is local, a network
// fetch otherwise) and then computes. Like the Hadoop DFS client, the read
// fails over across replicas, blacklisting sources that stalled; the
// attempt only fails once every known replica has been tried.
func (jt *JobTracker) startMap(in *Instance) {
	cfg := in.task.job.cfg
	block := dfs.BlockID{File: cfg.InputFile, Index: in.task.Index}
	if cfg.SkipInputRead || jt.isInputLocal(in.task, in.node) {
		jt.startCompute(in, cfg.MapCPU)
		return
	}
	in.phase = phaseRead
	var blacklist []int
	retries := 0
	var attempt func()
	attempt = func() {
		flow, err := jt.fs.ReadBlock(in.node, block, 0, blacklist, 0, func(_, src int, err error) {
			in.readFlow = netmodel.Flow{}
			if in.phase != phaseRead {
				return
			}
			if err != nil {
				blacklist = append(blacklist, src)
				attempt()
				return
			}
			jt.startCompute(in, cfg.MapCPU)
		})
		if err != nil {
			// Every known replica failed or none is believed live. Like
			// the DFS client, wait out the churn and retry with a fresh
			// replica list before giving up on the attempt.
			retries++
			if retries > inputReadRetries {
				jt.failInstance(in, fmt.Sprintf("input unavailable: %v", err))
				return
			}
			blacklist = blacklist[:0]
			jt.sim.After(jt.cfg.FetchRetryInterval, "map.inputRetry", func() {
				if in.phase == phaseRead {
					attempt()
				}
			})
			return
		}
		in.readFlow = flow
	}
	attempt()
}

// startReduce begins the shuffle phase.
func (jt *JobTracker) startReduce(in *Instance) {
	in.phase = phaseShuffle
	in.shuffle = newShuffle(jt, in)
	in.shuffle.pump()
}

// shuffleCompleted moves a reduce attempt from copy to compute (the model's
// sort phase is instantaneous).
func (jt *JobTracker) shuffleCompleted(in *Instance) {
	if in.phase != phaseShuffle {
		return
	}
	j := in.task.job
	j.shuffleTimeSum += jt.sim.Now() - in.startedAt
	j.shuffleTimeCount++
	jt.startCompute(in, j.cfg.ReduceCPU)
}

// startCompute begins the CPU burst (paused and resumed with node
// availability).
func (jt *JobTracker) startCompute(in *Instance, cpu float64) {
	in.phase = phaseCompute
	in.cpuTotal = cpu
	in.cpuLeft = cpu
	in.computeStartedAt = jt.sim.Now()
	jt.resumeCompute(in)
}

func (jt *JobTracker) resumeCompute(in *Instance) {
	if in.phase != phaseCompute || in.computing || !in.node.Available() {
		return
	}
	in.computing = true
	in.runningSince = jt.sim.Now()
	in.computeEv = jt.sim.After(in.cpuLeft, "task.compute", func() {
		in.computing = false
		in.cpuLeft = 0
		in.computeEv = sim.Event{}
		jt.startWrite(in)
	})
}

func (jt *JobTracker) pauseCompute(in *Instance) {
	if !in.computing {
		return
	}
	in.cpuLeft -= jt.sim.Now() - in.runningSince
	if in.cpuLeft < 0 {
		in.cpuLeft = 0
	}
	in.computing = false
	jt.sim.Cancel(in.computeEv)
	in.computeEv = sim.Event{}
}

// startWrite writes the attempt's output through the DFS.
func (jt *JobTracker) startWrite(in *Instance) {
	in.phase = phaseWrite
	cfg := in.task.job.cfg
	var size float64
	var class dfs.FileClass
	var factor dfs.Factor
	if in.task.Type == MapTask {
		size, class, factor = cfg.IntermediatePerMap, cfg.IntermediateClass, cfg.IntermediateFactor
	} else {
		size, class, factor = cfg.OutputPerReduce, dfs.Opportunistic, cfg.OutputFactor
		if jt.cfg.Policy == PolicyHadoop {
			// Stock Hadoop writes output at full factor directly.
			class = dfs.Reliable
		}
	}
	if size <= 0 {
		jt.completeInstance(in)
		return
	}
	in.outputFile = in.ID()
	op, err := jt.fs.Write(in.node, in.outputFile, size, class, factor, func(err error) {
		in.writeOp = nil
		if in.phase != phaseWrite {
			return
		}
		if err == netmodel.ErrCanceled {
			return
		}
		if err != nil {
			jt.fs.Delete(in.outputFile)
			in.outputFile = ""
			jt.failInstance(in, fmt.Sprintf("output write: %v", err))
			return
		}
		jt.completeInstance(in)
	})
	if err != nil {
		jt.failInstance(in, fmt.Sprintf("output create: %v", err))
		return
	}
	in.writeOp = op
}

// detach removes a no-longer-running attempt from its tracker, its task's
// live list, and the job's live-attempt count. Detaching can re-pend a
// task and shrink speculative counts, so it invalidates the tick caches
// when it runs inside a heartbeat (via a launch's synchronous failure
// paths).
func (jt *JobTracker) detach(in *Instance) {
	jt.taskStateChanged()
	in.tracker.remove(in)
	in.task.pruneInstance(in)
	in.task.job.attempts.Live--
	if in.inactive {
		in.task.job.attempts.Inactive--
	}
}

// completeInstance records a successful attempt; the first wins the task.
func (jt *JobTracker) completeInstance(in *Instance) {
	in.phase = phaseDone
	jt.detach(in)
	t := in.task
	j := t.job
	now := jt.sim.Now()

	if t.completed {
		// A sibling already won; this attempt's output is discarded.
		if in.outputFile != "" {
			jt.fs.Delete(in.outputFile)
			in.outputFile = ""
		}
		jt.countKill(t)
		if in.speculative {
			jt.inst.specWasted.Inc()
		}
		return
	}
	if in.speculative {
		jt.inst.specWon.Inc()
	}
	t.completed = true
	t.completedAt = now
	t.output = in.outputFile
	if t.Type == MapTask {
		j.mapsCompleted++
		j.mapTimeSum += now - in.startedAt
		j.mapTimeCount++
		jt.inst.mapDur.Observe(now - in.startedAt)
		j.fetchReporters[t.Index] = nil
		j.mapReady.put(t.Index, t.output != "")
		jt.notifyShuffles(j)
	} else {
		j.reducesCompleted++
		j.reduceTimeSum += now - in.computeStartedAt
		j.reduceTimeCount++
		jt.inst.reduceDur.Observe(now - in.startedAt)
	}
	// Kill the losing attempts (copy the slice: killing prunes it).
	for _, other := range append([]*Instance(nil), t.instances...) {
		if other != in && other.running() {
			jt.killInstance(other)
		}
	}
	jt.maybeFinishJob(j)
}

// killInstance terminates an attempt (tracker expiry, lost race, job end).
// The phase changes before teardown so that cancellation callbacks firing
// synchronously see a dead attempt and do nothing.
func (jt *JobTracker) killInstance(in *Instance) {
	if !in.running() {
		return
	}
	in.phase = phaseKilled
	jt.teardown(in)
	jt.detach(in)
	jt.countKill(in.task)
	if in.speculative {
		jt.inst.specWasted.Inc()
	}
}

// failInstance terminates an attempt that hit an unrecoverable error and
// counts it against the task's attempt budget.
func (jt *JobTracker) failInstance(in *Instance, reason string) {
	if !in.running() {
		return
	}
	jt.killInstance(in)
	if in.task.attempts >= maxTaskAttempts && !in.task.completed {
		jt.failJob(in.task.job, fmt.Sprintf("task %s failed %d attempts (last: %s)",
			in.task.ID(), in.task.attempts, reason))
	}
}

// teardown cancels an attempt's outstanding I/O and compute.
func (jt *JobTracker) teardown(in *Instance) {
	jt.pauseCompute(in)
	// The phase is already marked, so the cancel callback is a no-op.
	f := in.readFlow
	in.readFlow = netmodel.Flow{}
	jt.net.Cancel(f)
	if in.shuffle != nil {
		in.shuffle.cancel()
	}
	if in.writeOp != nil {
		op := in.writeOp
		in.writeOp = nil
		op.Cancel()
	}
	if in.outputFile != "" && (in.task.output != in.outputFile || !in.task.completed) {
		jt.fs.Delete(in.outputFile)
		in.outputFile = ""
	}
}

func (jt *JobTracker) countKill(t *Task) {
	jt.inst.kills.Inc()
	if t.Type == MapTask {
		t.job.killedMaps++
	} else {
		t.job.killedReduces++
	}
}

// notifyShuffles pumps the job's running reduce attempts after one of its
// maps completes.
func (jt *JobTracker) notifyShuffles(j *Job) {
	for _, t := range j.reduces {
		for _, in := range t.instances {
			if in.running() && in.phase == phaseShuffle && in.shuffle != nil {
				in.shuffle.pump()
			}
		}
	}
}

// --- fetch failures ----------------------------------------------------------

// reportFetchFailure is called by a reducer's shuffle when a map output
// fetch fails. attemptFails is that attempt's failure count for this map.
func (jt *JobTracker) reportFetchFailure(in *Instance, mapIndex, attemptFails int) {
	j := in.task.job
	if j.Done() {
		return
	}
	mt := j.maps[mapIndex]
	if !mt.completed {
		return // already being re-executed
	}
	if attemptFails < fetchReportThreshold {
		return // the reducer keeps retrying before notifying the master
	}
	jt.inst.fetchReports.IncAt(jt.sim.Now())
	if jt.cfg.Policy == PolicyMOON || jt.cfg.FastFetchReaction {
		// After moonFetchFailureCount failures, ask the DFS whether any
		// replica is actually alive; if not, re-execute immediately.
		if attemptFails >= moonFetchFailureCount {
			block := dfs.BlockID{File: mt.output, Index: 0}
			if !jt.fs.HasLiveReplica(block) {
				jt.invalidateMapOutput(mt)
			}
		}
		return
	}
	// Hadoop: re-execute once more than half the running reducers report
	// failures for this map.
	if j.fetchReporters[mapIndex] == nil {
		j.fetchReporters[mapIndex] = make(map[int]bool)
	}
	j.fetchReporters[mapIndex][in.task.Index] = true
	running := 0
	for _, t := range j.reduces {
		if t.runningInstances() > 0 && !t.completed {
			running++
		}
	}
	if running > 0 && float64(len(j.fetchReporters[mapIndex])) > hadoopFetchFailureFraction*float64(running) {
		jt.invalidateMapOutput(mt)
	}
}

// invalidateMapOutput declares a completed map's output lost: the file is
// removed, the task returns to pending, and reducers fetch the re-executed
// attempt's output when it lands.
func (jt *JobTracker) invalidateMapOutput(mt *Task) {
	if !mt.completed {
		return
	}
	jt.taskStateChanged() // the map re-pends: tick caches are stale
	j := mt.job
	mt.completed = false
	mt.invalidations++
	jt.inst.invalidated.Inc()
	j.mapsCompleted--
	j.killedMaps++
	if mt.output != "" {
		jt.fs.Delete(mt.output)
		mt.output = ""
	}
	j.mapReady.put(mt.Index, false)
	j.fetchReporters[mt.Index] = nil
	for _, rt := range j.reduces {
		for _, in := range rt.instances {
			if in.running() && in.shuffle != nil {
				in.shuffle.mapInvalidated(mt.Index)
			}
		}
	}
}

// --- job completion ----------------------------------------------------------

func (jt *JobTracker) maybeFinishJob(j *Job) {
	if j.Done() || j.state == JobCommitting {
		return
	}
	if j.mapsCompleted < len(j.maps) || j.reducesCompleted < len(j.reduces) {
		return
	}
	if jt.cfg.Policy == PolicyHadoop {
		jt.succeedJob(j)
		return
	}
	// MOON: convert output files to reliable and wait until every block
	// meets its replication factor before declaring success.
	j.state = JobCommitting
	for _, t := range j.reduces {
		if t.output != "" {
			if err := jt.fs.Commit(t.output); err != nil {
				jt.failJob(j, fmt.Sprintf("commit %s: %v", t.output, err))
				return
			}
		}
	}
	j.commitTicker = jt.sim.Ticker(jt.cfg.HeartbeatInterval, "jt.commitPoll", func() {
		for _, t := range j.reduces {
			if t.output != "" && !jt.fs.FileFullyReplicated(t.output) {
				return
			}
		}
		j.commitTicker()
		j.commitTicker = nil
		jt.succeedJob(j)
	})
}

func (jt *JobTracker) succeedJob(j *Job) {
	j.state = JobSucceeded
	j.finishedAt = jt.sim.Now()
	j.mMakespan.Set(j.finishedAt - j.submittedAt)
	jt.cleanupJob(j)
	if j.onDone != nil {
		j.onDone(j)
	}
}

func (jt *JobTracker) failJob(j *Job, reason string) {
	if j.Done() {
		return
	}
	j.state = JobFailed
	j.failReason = reason
	j.finishedAt = jt.sim.Now()
	j.mMakespan.Set(j.finishedAt - j.submittedAt)
	jt.cleanupJob(j)
	if j.onDone != nil {
		j.onDone(j)
	}
}

// cleanupJob kills every still-running attempt of the job.
func (jt *JobTracker) cleanupJob(j *Job) {
	if j.commitTicker != nil {
		j.commitTicker()
		j.commitTicker = nil
	}
	for _, t := range append(append([]*Task(nil), j.maps...), j.reduces...) {
		for _, in := range append([]*Instance(nil), t.instances...) {
			if in.running() {
				in.phase = phaseKilled
				jt.teardown(in)
				jt.detach(in)
			}
		}
	}
}
