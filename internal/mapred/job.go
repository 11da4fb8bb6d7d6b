package mapred

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// JobState tracks the lifecycle of a submitted job.
type JobState int

const (
	JobRunning JobState = iota
	JobCommitting
	JobSucceeded
	JobFailed
)

func (s JobState) String() string {
	switch s {
	case JobRunning:
		return "running"
	case JobCommitting:
		return "committing"
	case JobSucceeded:
		return "succeeded"
	case JobFailed:
		return "failed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Job is one submitted MapReduce job. All per-job scheduler bookkeeping
// lives here, so the JobTracker can run any number of jobs concurrently.
type Job struct {
	cfg JobConfig

	maps    []*Task
	reduces []*Task
	// mapReady holds the maps a reducer can fetch from: completed, with an
	// output file. completeInstance and invalidateMapOutput keep it; every
	// shuffle of the job reads it to find its next fetch (shuffleState).
	mapReady mapSet

	state       JobState
	submittedAt float64
	finishedAt  float64
	failReason  string

	// attempts is the shared live-attempt accounting (maintained
	// incrementally): Live counts the job's currently running task
	// instances, Inactive the subset stranded on suspended trackers.
	// Fair-share ranks jobs by the active difference, so a churn-stalled
	// job is not deprioritized for the backup copies that would unfreeze
	// it.
	attempts sched.Attempts

	// scheduleSeq numbers first launches of the job's tasks, used by
	// Hadoop's speculative selection.
	scheduleSeq int

	// fetchReporters tracks, per map index, the distinct reduce tasks
	// reporting fetch failures (Hadoop's >50% rule).
	fetchReporters []map[int]bool

	// commitTicker polls output replication during the MOON commit phase.
	commitTicker func()

	mapsCompleted    int
	reducesCompleted int

	// Profile accumulators.
	mapTimeSum       float64 // successful map attempt durations
	mapTimeCount     int
	shuffleTimeSum   float64 // reduce start → shuffle complete
	shuffleTimeCount int
	reduceTimeSum    float64 // compute start → attempt success
	reduceTimeCount  int

	killedMaps    int // map attempts terminated without success + invalidated outputs
	killedReduces int // reduce attempts terminated without success

	// Per-job instruments, scoped by job name (nil without a collector):
	// queue wait is submission → first task launch, makespan is set when
	// the job reaches a terminal state.
	mQueueWait *metrics.Gauge
	mMakespan  *metrics.Gauge

	onDone func(*Job)
}

// Config returns the job's configuration.
func (j *Job) Config() JobConfig { return j.cfg }

// State returns the job's current state.
func (j *Job) State() JobState { return j.state }

// Done reports whether the job reached a terminal state.
func (j *Job) Done() bool { return j.state == JobSucceeded || j.state == JobFailed }

// FailReason describes why a failed job failed.
func (j *Job) FailReason() string { return j.failReason }

// SubmittedAt returns the simulation time the job was submitted.
func (j *Job) SubmittedAt() float64 { return j.submittedAt }

// FinishedAt returns the simulation time the job reached a terminal state
// (zero while the job is still running).
func (j *Job) FinishedAt() float64 { return j.finishedAt }

// Profile is the per-job execution profile — the columns of the paper's
// Table II plus the duplicated-task count of Figure 5 and the makespan of
// Figures 4, 6 and 7.
type Profile struct {
	Job      string
	State    JobState
	Makespan float64 // submit → success (or failure)

	AvgMapTime     float64
	AvgShuffleTime float64
	AvgReduceTime  float64

	KilledMaps    int
	KilledReduces int

	// DuplicatedTasks counts every attempt beyond each task's first —
	// speculative copies plus kill/loss re-executions.
	DuplicatedTasks int

	MapInvalidations int // completed map outputs declared lost
}

// Profile summarizes the job after it finishes.
func (j *Job) Profile() Profile {
	p := Profile{
		Job:           j.cfg.Name,
		State:         j.state,
		Makespan:      j.finishedAt - j.submittedAt,
		KilledMaps:    j.killedMaps,
		KilledReduces: j.killedReduces,
	}
	if j.mapTimeCount > 0 {
		p.AvgMapTime = j.mapTimeSum / float64(j.mapTimeCount)
	}
	if j.shuffleTimeCount > 0 {
		p.AvgShuffleTime = j.shuffleTimeSum / float64(j.shuffleTimeCount)
	}
	if j.reduceTimeCount > 0 {
		p.AvgReduceTime = j.reduceTimeSum / float64(j.reduceTimeCount)
	}
	for _, t := range j.maps {
		p.DuplicatedTasks += t.attempts - 1
		p.MapInvalidations += t.invalidations
	}
	for _, t := range j.reduces {
		p.DuplicatedTasks += t.attempts - 1
	}
	return p
}

// Name returns the job's name — the identity the shared scheduling core
// (internal/sched) keys duplicate rejection and weight lookups on.
func (j *Job) Name() string { return j.cfg.Name }

// ActiveAttempts counts running attempts not stranded on suspended
// trackers — the fair-share ranking key of sched.Policy implementations.
func (j *Job) ActiveAttempts() int { return j.attempts.Active() }

// Priority is the job's strict-priority rank (JobConfig.Priority); only
// the sched.StrictPriority policy reads it.
func (j *Job) Priority() int { return j.cfg.Priority }

// remainingTasks counts incomplete tasks of the job.
func (j *Job) remainingTasks() int {
	return len(j.maps) - j.mapsCompleted + len(j.reduces) - j.reducesCompleted
}

// MapsCompleted returns the number of completed (and not invalidated) maps.
func (j *Job) MapsCompleted() int { return j.mapsCompleted }

// ReducesCompleted returns the number of completed reduces.
func (j *Job) ReducesCompleted() int { return j.reducesCompleted }

// Tasks returns the job's map and reduce task lists (read-only view for
// monitoring and tests).
func (j *Job) Tasks() (maps, reduces []*Task) { return j.maps, j.reduces }
