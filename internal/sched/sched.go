// Package sched is the backend-agnostic scheduling core shared by the
// simulator's JobTracker (internal/mapred) and the live goroutine engine
// (internal/engine): a multi-tenant job queue with duplicate-name
// rejection and per-job live-attempt accounting, plus the policy family —
// FIFO, fair-share, weighted-fair, strict-priority — that arbitrates every
// free execution slot between concurrently running jobs.
//
// Both backends present their jobs through the tiny Job constraint and
// instantiate the generic policies with their own job type, so arbitration
// decisions are literally the same code whether the "slot" is a simulated
// TaskTracker slot or a live worker goroutine. Policies are pure ordering
// functions over the runnable jobs: they retain no state, draw no
// randomness, and allocate nothing when called with reused scratch — the
// properties the simulator's byte-identical determinism pins rely on.
package sched

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
)

// Job is the minimal view of a submitted job a scheduling decision needs.
// Implementations are the backends' own job types (the simulator's
// *mapred.Job, the engine's live job record).
type Job interface {
	comparable // the queue finds a job again by identity (Queue.Remove)
	// Name identifies the job; the queue rejects duplicate live names and
	// the weighted-fair policy looks weights up by it.
	Name() string
	// Done reports whether the job reached a terminal state (a terminal
	// job stays queued until its owner removes it, but no longer occupies
	// a name or receives slots).
	Done() bool
	// ActiveAttempts counts the job's currently running task attempts
	// minus those stranded on suspended workers — the fair-share and
	// weighted-fair ranking key.
	ActiveAttempts() int
	// Priority is the job's strict-priority rank (higher first; only the
	// StrictPriority policy reads it).
	Priority() int
}

// Attempts is the per-job live-attempt accounting both backends maintain:
// Live counts every running task instance of the job, Inactive the subset
// stranded on suspended workers. The difference — Active — is the
// fair-share ranking key: a churn-stalled job is not deprioritized for the
// backup copies that would unfreeze it.
type Attempts struct {
	Live     int
	Inactive int
}

// Active returns the running attempts not stranded on suspended workers.
func (a Attempts) Active() int { return a.Live - a.Inactive }

// Balanced reports whether the accounting has fully drained — no live and
// no inactive attempts. Every job must be balanced after it completes; a
// non-zero residue means a launch/retire pair leaked.
func (a Attempts) Balanced() bool { return a.Live == 0 && a.Inactive == 0 }

// Policy arbitrates execution slots across concurrently running jobs. On
// every free-slot offer the scheduler asks the policy to order the
// runnable jobs; the first job in the order with an eligible task wins the
// slot. The order is recomputed per offer, so policies that rank by live
// usage (fair-share, weighted-fair) react to every launch.
//
// A policy is a name plus an optional ranking; the zero value is FIFO.
// Task selection *within* a job is the backend's business: policies only
// decide which job is offered the slot first.
type Policy[J Job] struct {
	name string
	// before reports whether a strictly ranks ahead of b; nil keeps
	// submission order.
	before func(a, b J) bool
}

// Name is the policy's flag/label spelling ("fifo", "fair", "weighted",
// "priority").
func (p Policy[J]) Name() string { return cmp.Or(p.name, "fifo") }

// Order appends the jobs of running (given in submission order) to dst in
// slot-offer order and returns dst. It retains neither slice. Equal jobs
// keep submission order — the tie-break every ranked policy's determinism
// relies on. Insertion sort: job counts are small and the order barely
// changes between consecutive offers.
func (p Policy[J]) Order(dst, running []J) []J {
	dst = append(dst, running...)
	if p.before == nil {
		return dst
	}
	for i := 1; i < len(dst); i++ {
		j := dst[i]
		k := i - 1
		for k >= 0 && p.before(j, dst[k]) {
			dst[k+1] = dst[k]
			k--
		}
		dst[k+1] = j
	}
	return dst
}

// FIFO offers every free slot to the earliest-submitted running job first.
// A later job only receives slots the earlier jobs cannot use (the policy
// is work-conserving), so saturating jobs execute essentially serially in
// submission order.
func FIFO[J Job]() Policy[J] { return Policy[J]{} }

// FairShare splits slots evenly between running jobs: every free slot is
// offered to the job with the fewest *active* task attempts (attempts
// stranded on suspended workers don't count against a job, mirroring how
// the MOON speculative budget ignores inactive copies), breaking ties by
// submission order. Concurrent jobs therefore make interleaved progress
// instead of queueing behind the first submission.
func FairShare[J Job]() Policy[J] {
	return Policy[J]{name: "fair", before: func(a, b J) bool { return a.ActiveAttempts() < b.ActiveAttempts() }}
}

// WeightedFair splits slots in proportion to per-job weights: every free
// slot is offered to the running job with the smallest active-attempts to
// weight ratio, so a weight-3 job holds three times the slots of a
// weight-1 competitor at steady state. Ties break by submission order,
// and weights are looked up by job name — a job without an entry (or with
// a non-positive weight, which PolicyByName refuses) runs at weight 1, so
// WeightedFair(nil) degenerates to plain fair-share. Like fair-share, the
// ratio counts only *active* attempts, so a churn-stalled job is not
// deprioritized for the backup copies that would unfreeze it.
func WeightedFair[J Job](weights map[string]float64) Policy[J] {
	weight := func(j J) float64 {
		if w, ok := weights[j.Name()]; ok && w > 0 {
			return w
		}
		return 1
	}
	return Policy[J]{name: "weighted", before: func(a, b J) bool {
		return float64(a.ActiveAttempts())/weight(a) < float64(b.ActiveAttempts())/weight(b)
	}}
}

// StrictPriority offers every free slot to the highest-priority running
// job first; equal priorities tie-break by submission order, so the
// zero-priority default degenerates to FIFO. There is no preemption: a
// lower-priority job keeps the attempts it already holds, a
// higher-priority arrival merely wins every subsequent offer.
func StrictPriority[J Job]() Policy[J] {
	return Policy[J]{name: "priority", before: func(a, b J) bool { return a.Priority() > b.Priority() }}
}

// PolicyNames lists the PolicyByName spellings, for flag help and
// `moonbench -list`.
func PolicyNames() []string { return []string{"fifo", "fair", "weighted", "priority"} }

// PolicyByName resolves a policy setting and its per-job weights. It is the
// only reader of one — flags, scenario specs and engine configuration all
// route through here — so a typo'd name is a hard error everywhere and
// never falls back to a default. The four PolicyNames are the only
// spellings; "" is refused, and a caller where empty means FIFO passes
// cmp.Or(name, "fifo"). Weights are allowed only with "weighted", and each
// must be > 0 (WeightedFair would read any other as 1).
func PolicyByName[J Job](name string, weights map[string]float64) (Policy[J], error) {
	var p Policy[J]
	switch name {
	case "fifo":
	case "fair":
		p = FairShare[J]()
	case "weighted":
		p = WeightedFair[J](weights)
	case "priority":
		p = StrictPriority[J]()
	default:
		return p, fmt.Errorf("sched: unknown job policy %q (want fifo, fair, weighted or priority)", name)
	}
	if len(weights) > 0 && name != "weighted" {
		return Policy[J]{}, fmt.Errorf("sched: weights need policy \"weighted\", not %q", name)
	}
	// Sorted keys so the reported weight is deterministic when several
	// are invalid.
	for _, job := range slices.Sorted(maps.Keys(weights)) {
		if w := weights[job]; !(w > 0) {
			return Policy[J]{}, fmt.Errorf("sched: weight %v for job %q (want > 0)", w, job)
		}
	}
	return p, nil
}
