package mapred

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// TaskType distinguishes Map from Reduce tasks.
type TaskType int

const (
	MapTask TaskType = iota
	ReduceTask
)

func (t TaskType) String() string {
	if t == ReduceTask {
		return "reduce"
	}
	return "map"
}

// Task is one logical unit of job work; it may be attempted by several
// Instances (the original plus speculative or re-executed copies).
type Task struct {
	Type  TaskType
	Index int

	job *Job

	// instances holds the *live* attempts only; finished ones are pruned
	// so scheduler scans stay O(running), not O(history). attempts and
	// specLaunches preserve the historical counts for metrics.
	instances    []*Instance
	attempts     int
	specLaunches int

	completed   bool
	completedAt float64
	// output is the DFS file written by the winning attempt
	// (intermediate data for maps, final output for reduces).
	output string

	// invalidations counts times a completed map's output was declared
	// lost, forcing re-execution.
	invalidations int

	// scheduledOrder is the order of first launch, used by Hadoop's
	// speculative selection.
	scheduledOrder int
}

// ID renders a stable task name.
func (t *Task) ID() string { return fmt.Sprintf("%s-%s%d", t.job.cfg.Name, t.Type, t.Index) }

// Completed reports whether the task has a surviving successful attempt.
func (t *Task) Completed() bool { return t.completed }

// Output returns the DFS file name of the winning attempt, or "".
func (t *Task) Output() string { return t.output }

// pruneInstance removes a finished attempt from the live list.
func (t *Task) pruneInstance(in *Instance) {
	for i, x := range t.instances {
		if x == in {
			t.instances = append(t.instances[:i], t.instances[i+1:]...)
			return
		}
	}
}

// activeInstances counts attempts that are running and not inactive.
func (t *Task) activeInstances() int {
	n := 0
	for _, in := range t.instances {
		if in.running() && !in.inactive {
			n++
		}
	}
	return n
}

// runningInstances counts attempts that are running (even if inactive).
func (t *Task) runningInstances() int {
	n := 0
	for _, in := range t.instances {
		if in.running() {
			n++
		}
	}
	return n
}

// frozen reports whether the task has attempts but every one of them is
// inactive — MOON's "all copies simultaneously inactive" condition.
func (t *Task) frozen() bool {
	return !t.completed && t.runningInstances() > 0 && t.activeInstances() == 0
}

// hasActiveDedicatedCopy reports whether some active attempt runs on a
// dedicated node.
func (t *Task) hasActiveDedicatedCopy() bool {
	for _, in := range t.instances {
		if in.running() && !in.inactive && in.node.IsDedicated() {
			return true
		}
	}
	return false
}

// progress returns the task's best attempt progress in [0,1]; completed
// tasks report 1.
func (t *Task) progress(now float64) float64 {
	if t.completed {
		return 1
	}
	best := 0.0
	for _, in := range t.instances {
		if p := in.progress(now); p > best && in.running() {
			best = p
		}
	}
	return best
}

// instancePhase tracks where an attempt is in its lifecycle.
type instancePhase int

const (
	phaseRead    instancePhase = iota // map: fetching a non-local input block
	phaseShuffle                      // reduce: copying map outputs
	phaseCompute                      // both: CPU
	phaseWrite                        // both: writing output through the DFS
	phaseDone
	phaseKilled
)

// Instance is one attempt of a task on one node.
type Instance struct {
	task    *Task
	node    *cluster.Node
	tracker *TaskTracker
	attempt int

	phase     instancePhase
	startedAt float64

	// inactive marks the MOON "suspended but not killed" state.
	inactive bool

	// Compute bookkeeping: cpuLeft seconds remain; while actively
	// computing, runningSince records when the current burst began and
	// computeEv is the completion event.
	cpuTotal     float64
	cpuLeft      float64
	runningSince float64
	computing    bool
	computeEv    sim.Event

	// I/O handles, canceled on kill.
	readFlow netmodel.Flow
	writeOp  *dfs.WriteOp
	shuffle  *shuffleState

	outputFile  string
	speculative bool

	// computeStartedAt marks the end of the copy/sort phases, for the
	// Table II "reduce time" metric (reduce phase only).
	computeStartedAt float64
}

// ID renders the attempt name (also used as its DFS output file name).
func (in *Instance) ID() string {
	return fmt.Sprintf("%s-a%d", in.task.ID(), in.attempt)
}

func (in *Instance) running() bool {
	return in.phase != phaseDone && in.phase != phaseKilled
}

// progress implements Hadoop's progress score: maps report the fraction of
// input processed; reduces weight shuffle, sort and reduce each 1/3 (sort
// is instantaneous in the model, so it merges into the compute start).
func (in *Instance) progress(now float64) float64 {
	switch in.phase {
	case phaseRead:
		return 0
	case phaseShuffle:
		if in.shuffle == nil || in.task.job.cfg.NumMaps == 0 {
			return 0
		}
		return float64(in.shuffle.fetched) / float64(in.task.job.cfg.NumMaps) / 3
	case phaseCompute, phaseWrite:
		f := 1.0
		if in.cpuTotal > 0 {
			left := in.cpuLeft
			if in.computing {
				left -= now - in.runningSince
			}
			if left < 0 {
				left = 0
			}
			f = 1 - left/in.cpuTotal
		}
		if in.task.Type == ReduceTask {
			return 2.0/3 + f/3
		}
		return f
	case phaseDone:
		return 1
	default:
		return 0
	}
}

// elapsed returns how long the attempt has existed.
func (in *Instance) elapsed(now float64) float64 { return now - in.startedAt }

// InstanceDetails summarizes the task's running attempts for diagnostics:
// one "phase[/inactive]" string per live attempt.
func (t *Task) InstanceDetails(now float64) []string {
	var out []string
	for _, in := range t.instances {
		if !in.running() {
			continue
		}
		d := ""
		switch in.phase {
		case phaseRead:
			d = "read"
		case phaseShuffle:
			d = fmt.Sprintf("shuffle(%d/%d)", in.shuffle.fetched, len(in.shuffle.state))
		case phaseCompute:
			d = "compute"
		case phaseWrite:
			d = "write"
		}
		if in.inactive {
			d += "/inactive"
		}
		out = append(out, d)
	}
	return out
}
