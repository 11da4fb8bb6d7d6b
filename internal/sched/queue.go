package sched

import (
	"fmt"
	"slices"
)

// Queue is the multi-tenant job queue shared by both backends. Submit
// enqueues (duplicate *live* names are rejected — output artifacts are
// keyed by job name on both backends — concurrent jobs are not), a job
// stays queued after reaching a terminal state until its owner calls
// Remove, and Order returns the runnable jobs in the policy's slot-offer
// order. Removal is the owner's call because only the owner knows who still
// reads a terminal job: the simulator's JobTracker never removes (the
// harness reads every profile after a finite run), the live engine removes
// a job once its last attempt has retired (the handle carries the profile,
// and a daemon's job stream does not end). A walk costs what the owner kept.
//
// The order is recomputed on every offer — fair-share ranks by live
// attempts, which change with each launch, and a job may finish or leave
// the runnable state mid-tick — using two scratch slices reused across
// offers, so a hot scheduling loop allocates nothing.
type Queue[J Job] struct {
	policy   Policy[J]
	runnable func(J) bool
	jobs     []J

	runnableScratch []J
	orderScratch    []J
}

// NewQueue builds a queue arbitrated by policy (nil selects FIFO).
// runnable reports whether a job may receive slots right now; nil treats
// every non-terminal job as runnable.
func NewQueue[J Job](policy Policy[J], runnable func(J) bool) *Queue[J] {
	if policy == nil {
		policy = FIFO[J]()
	}
	if runnable == nil {
		runnable = func(j J) bool { return !j.Done() }
	}
	return &Queue[J]{policy: policy, runnable: runnable}
}

// Submit enqueues a job. A job whose name collides with a still-live job
// is rejected: both backends key output artifacts (DFS files, map-output
// stores) by job name, so two live jobs with one name would collide.
func (q *Queue[J]) Submit(j J) error {
	for _, other := range q.jobs {
		if !other.Done() && other.Name() == j.Name() {
			return fmt.Errorf("sched: job %q is already running", j.Name())
		}
	}
	q.jobs = append(q.jobs, j)
	return nil
}

// Remove takes a job out, keeping the others in submission order, and
// reports whether it was there. It shifts the slice Jobs returned: a caller
// ranging over Jobs collects first and removes after.
func (q *Queue[J]) Remove(j J) bool {
	i := slices.Index(q.jobs, j)
	if i >= 0 {
		q.jobs = slices.Delete(q.jobs, i, i+1) // zeroes the vacated tail slot
	}
	return i >= 0
}

// Jobs returns every queued job in submission order, terminal jobs not yet
// removed included (read-only view, valid until the next Submit or Remove).
func (q *Queue[J]) Jobs() []J { return q.jobs }

// Len returns the number of queued jobs, terminal ones included.
func (q *Queue[J]) Len() int { return len(q.jobs) }

// Latest returns the most recently submitted job and true, or the zero J
// and false before the first submission.
func (q *Queue[J]) Latest() (J, bool) {
	if len(q.jobs) == 0 {
		var zero J
		return zero, false
	}
	return q.jobs[len(q.jobs)-1], true
}

// Running counts jobs that have not reached a terminal state.
func (q *Queue[J]) Running() int {
	n := 0
	for _, j := range q.jobs {
		if !j.Done() {
			n++
		}
	}
	return n
}

// Policy returns the active slot-arbitration policy.
func (q *Queue[J]) Policy() Policy[J] { return q.policy }

// Order returns the runnable jobs in the policy's slot-offer order. The
// returned slice is scratch owned by the queue: it is valid until the next
// Order call and must not be retained.
func (q *Queue[J]) Order() []J {
	q.runnableScratch = q.runnableScratch[:0]
	for _, j := range q.jobs {
		if q.runnable(j) {
			q.runnableScratch = append(q.runnableScratch, j)
		}
	}
	q.orderScratch = q.policy.Order(q.orderScratch[:0], q.runnableScratch)
	return q.orderScratch
}
