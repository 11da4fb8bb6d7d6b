package engine

import "fmt"

// The master↔worker protocol. Everything the master and workers exchange
// travels over the cluster's transport as one of the message types below;
// there are no shared channels left between them (the hybrid replication
// write and the store audit are the two documented exceptions — the
// intermediate store models node-local disk, not the network).
//
// Reliability is split by message class. Heartbeats are fire-and-forget:
// losing one only ages the lease. Assignments (master→worker) and events
// (worker→master) are acknowledged by id and resent with exponential
// backoff up to LinkConfig.MaxRetries; receivers deduplicate by id, so a
// resend or a fault-injected duplicate applies once. A message abandoned
// after the last retry ends the attempt, not the job: the master
// force-retires and reschedules, the worker reconnects under a fresh
// session.
//
// Sessions make worker identity epoch-scoped: a worker joins with hello,
// is welcomed with a new session id, and every later message carries it.
// The master accepts events only from the worker's current, alive
// session — results of an expired or replaced session are discarded
// (counted as duplicate_result_discards), never committed.

// masterAddr is the master's listen address on the cluster transport.
const masterAddr = "master"

// WorkerAddr returns worker i's transport address: its dial identity and
// its intermediate-data listener. Fault-injection partition windows match
// these addresses, so scenarios can cut specific workers off.
func WorkerAddr(i int) string { return fmt.Sprintf("worker-%d", i) }

// msgHello opens a session: a worker introduces itself after dialing.
type msgHello struct {
	worker int
}

// msgWelcome answers hello with the worker's new session id.
type msgWelcome struct {
	session uint64
}

// msgExpired tells a worker its session was evicted; it must redial.
type msgExpired struct{}

// msgHeartbeat refreshes the worker's lease (fire-and-forget).
type msgHeartbeat struct {
	session uint64
}

// msgAck acknowledges one assignment or event by id.
type msgAck struct {
	id uint64
}

// msgAssign carries one task attempt to a worker (acked, resent, deduped).
type msgAssign struct {
	id      uint64
	session uint64
	task    assignment
}

// msgEvent carries one worker event to the master (acked, resent, deduped).
type msgEvent struct {
	id      uint64
	session uint64
	ev      workerEvent
}

// msgFetchReq asks a worker for one map output partition of one job.
type msgFetchReq struct {
	job, mapID, attempt, partition int
}

// msgFetchResp answers a fetch request.
type msgFetchResp struct {
	ok   bool
	data partition
}

// assignment is the self-contained description of one task attempt; the
// worker needs nothing else to execute it.
type assignment struct {
	jobID    int
	taskID   int
	attempt  int
	isReduce bool
	reduces  int

	// Map attempts.
	input string
	mapFn MapFunc
	// replicateTo is the dedicated worker holding the hybrid replica of
	// this map's output (-1: no replication).
	replicateTo int

	// Reduce attempts: the snapshot of winning map attempts to shuffle.
	reduceFn ReduceFunc
	sources  []reduceSource
}

// reduceSource locates one map output: the winning attempt and the workers
// holding it.
type reduceSource struct {
	mapID, attempt int
	holders        []int
}

// workerEvent is anything a worker reports back (the payload of msgEvent).
type workerEvent struct {
	kind    eventKind
	jobID   int
	taskID  int
	attempt int
	worker  int
	holders []int             // mapDone: workers holding the output
	output  map[string]string // reduceDone: final key→value pairs
	missing []int             // reduceStuck: map IDs with no reachable output
}
