// Package engine is a live, goroutine-based mini-MapReduce runtime with
// churn injection: real user Map and Reduce functions run on a pool of
// worker goroutines, some of which can be suspended and resumed at any
// moment (a volunteer PC reclaimed by its owner), while a small set of
// dedicated workers never churns — MOON's hybrid architecture in process
// form.
//
// Where internal/mapred *models* task execution to reproduce the paper's
// measurements, engine *executes* it: suspended workers stop mid-task and
// stop serving their map outputs, the master detects silence, issues backup
// copies for frozen tasks, optionally keeps a dedicated replica of all
// intermediate data (the paper's hybrid-aware replication), and re-executes
// maps whose outputs became unreachable. The first completed attempt of a
// task wins; results are exactly-once regardless of churn.
//
// The engine is multi-tenant: Submit enqueues any number of concurrent
// jobs on one persistent master, and the shared scheduling core
// (internal/sched — the same queue and policy family the simulator's
// JobTracker arbitrates with) decides which job each idle worker is
// offered. Every job gets its own result set and JobStatus (queue wait,
// makespan, per-job attempt statistics); Run remains the one-shot
// submit-and-wait convenience wrapper.
//
// A worker holds at most one unsettled attempt, and the master records it
// on the worker: task, session and the assignment's resend clock. Who is
// idle, who is silent and which task still has a live copy are lookups in
// that record. It is settled by that attempt's own result (the session
// that delivers a result names the worker; the event does not), by the
// assignment's last unacknowledged resend, or by its session's death; a
// result of an attempt the master gave up on still decides its task but
// settles nothing.
//
// The cluster outlives its jobs by a long way, so what a job costs is kept
// a property of the job. Intermediate data — the paper's class of its own:
// available while the job runs, gone when it ends — is a grouped flat run
// (partition) built once at its final size on both sides of the shuffle,
// through scratch the executing goroutine reuses. A finished job leaves the
// master when its last attempt retires (clearJob): queue, id index, worker
// stores, cleared-jobs fence and dedup state hold what is live, not the
// cluster's history, and only a JobHandle still knows the job.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/transport"
)

// MapFunc processes one input split, emitting intermediate key/value pairs.
type MapFunc func(input string, emit func(key, value string))

// ReduceFunc folds all values of one key into a final value.
type ReduceFunc func(key string, values []string) string

// Job describes one MapReduce computation.
type Job struct {
	Name    string
	Inputs  []string // one split per map task
	Reduces int
	// Map runs once per split. A map that can fold its own split should
	// (in-mapper combining: WordCountJob's counts its words and emits each
	// distinct word once); Combine is the path for a map that cannot. A
	// suspended worker stops a map at its next emission, so a map that
	// emits only after folding its split reads the whole split first.
	Map    MapFunc
	Reduce ReduceFunc

	// Combine, when set, folds each map's values per key before they are
	// stored, so a map keeps one value per distinct key. It must not change
	// the result: Reduce(k, vs) equals Reduce(k, [Combine(k, run₁), …,
	// Combine(k, runₘ)]) for any split of vs into ordered runs.
	Combine ReduceFunc

	// Priority is the job's strict-priority rank (higher wins every slot
	// offer under the "priority" policy; other policies ignore it).
	Priority int
}

// Config describes the worker pool and the MOON-style policies.
type Config struct {
	// VolatileWorkers can be suspended/resumed; DedicatedWorkers never
	// churn.
	VolatileWorkers  int
	DedicatedWorkers int

	// ReplicateToDedicated stores a copy of every map output on a
	// dedicated worker's store (MOON's hybrid-aware intermediate
	// replication). Without it, a suspended map worker makes its output
	// unreachable and the map is re-executed.
	ReplicateToDedicated bool

	// JobPolicy arbitrates execution slots between concurrently submitted
	// jobs: "fifo" (the default when empty), "fair", "weighted" or
	// "priority" — resolved by sched.PolicyByName, so the spellings (and
	// the hard error on a typo) are exactly the simulator's.
	JobPolicy string

	// JobWeights are the per-job-name weights of the "weighted" policy; a
	// job without an entry runs at weight 1. Validate refuses them with any
	// other policy, and a weight that is not > 0.
	JobWeights map[string]float64

	// Faults, when non-nil, wraps the in-process loopback that carries all
	// master↔worker traffic (join handshakes, heartbeats, assignments,
	// result events, intermediate-data fetches) with deterministic seeded
	// fault injection (drops, duplicates, delays, connection resets, timed
	// partition windows) — chaos testing for the failure-handling
	// protocol. See transport.FaultConfig. Without it the loopback is
	// ordered, lossless and effectively instant.
	Faults *transport.FaultConfig

	// SessionExpiry evicts a volatile worker's session once it has been
	// silent this long: the connection is closed, the worker must rejoin
	// under a new session, and results of the old one are discarded. It is
	// the protocol's one setting (every other clock is a constant in
	// protocol.go); zero disables expiry, so a returning worker resumes
	// its session.
	SessionExpiry time.Duration

	// Metrics, when non-nil, receives engine-layer instrumentation
	// (attempt launches, backup copies, frozen-task detections, map
	// re-executions, fetch failures, task-duration histograms) from the
	// master loop. Every instrument is cluster-wide, so the collector's
	// size does not grow with the jobs run; a job's queue wait and makespan
	// travel in its JobStatus. Series are bucketed by wall-clock seconds
	// since the cluster started. The collector is only touched from the
	// master goroutine; Close the cluster (which waits for the master to
	// exit) before snapshotting.
	Metrics *metrics.Collector
}

// DefaultConfig returns a small hybrid pool with MOON-style replication.
func DefaultConfig() Config {
	return Config{
		VolatileWorkers:      4,
		DedicatedWorkers:     1,
		ReplicateToDedicated: true,
	}
}

// Validate rejects configurations the protocol cannot run: an empty pool or
// a negative worker count, an unknown policy or weights it refuses, a
// session expiry that is neither 0 nor at least the lease (sessions would be
// evicted while their lease is still trusted), invalid fault settings, and a
// partition window that cuts an address no endpoint of this pool has.
func (c Config) Validate() error {
	if c.VolatileWorkers < 0 || c.DedicatedWorkers < 0 || c.VolatileWorkers+c.DedicatedWorkers < 1 {
		return fmt.Errorf("engine: need at least one worker (got %d volatile, %d dedicated)",
			c.VolatileWorkers, c.DedicatedWorkers)
	}
	if _, err := c.policy(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if c.SessionExpiry != 0 && c.SessionExpiry < leaseDuration {
		return fmt.Errorf("engine: SessionExpiry %v is neither 0 nor >= the %v lease (sessions would expire while their lease is still trusted)",
			c.SessionExpiry, leaseDuration)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		for i, p := range c.Faults.Partitions {
			for _, addr := range p.Addrs {
				if !c.endpoint(addr) {
					return fmt.Errorf("engine: partition %d cuts %q, which is not the master or a worker of this pool", i, addr)
				}
			}
		}
	}
	return nil
}

// endpoint reports whether addr is the master's or one of the pool's
// workers' transport address.
func (c Config) endpoint(addr string) bool {
	i, err := strconv.Atoi(strings.TrimPrefix(addr, "worker-"))
	return addr == masterAddr || err == nil && i >= 0 && i < c.VolatileWorkers+c.DedicatedWorkers && WorkerAddr(i) == addr
}

// policy resolves the configured arbitration policy and its weights; an
// empty JobPolicy is FIFO.
func (c Config) policy() (sched.Policy[*liveJob], error) {
	return sched.PolicyByName[*liveJob](cmp.Or(c.JobPolicy, "fifo"), c.JobWeights)
}

// Cluster is a live worker pool with one persistent master. Create with
// New, submit concurrent jobs with Submit (or run one with Run), inject
// churn with Suspend/Resume, and Close when done.
type Cluster struct {
	cfg Config
	// tr is the message fabric every master↔worker exchange crosses.
	tr transport.Transport
	// retries totals protocol retries made outside the master goroutine
	// (worker resends, master write-loop nudges); folded into the metrics
	// collector at shutdown.
	retries atomic.Int64
	// cleared fences finished jobs' store sweeps against stale attempts.
	cleared *clearedSet

	workers []*worker
	closed  chan struct{}
	once    sync.Once

	submits    chan submitReq
	drains     chan chan struct{}
	masterDone chan struct{}
	// master is owned by the master goroutine while it runs; only read
	// after Close (which waits for the goroutine to exit) — tests read
	// what it still holds through it.
	master *master
}

// New starts the worker goroutine pool and the master loop, wired through
// the in-process loopback (wrapped with fault injection when Config.Faults
// is set).
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:        cfg,
		cleared:    newClearedSet(),
		closed:     make(chan struct{}),
		submits:    make(chan submitReq),
		drains:     make(chan chan struct{}),
		masterDone: make(chan struct{}),
	}
	var tr transport.Transport = transport.NewLoopback()
	if cfg.Faults != nil {
		ftr, err := transport.NewFlaky(tr, *cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		tr = ftr
	}
	c.tr = tr
	masterLis, err := tr.Listen(masterAddr)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	total := cfg.VolatileWorkers + cfg.DedicatedWorkers
	for i := 0; i < total; i++ {
		w := newWorker(i, i >= cfg.VolatileWorkers, tr, &c.retries, c.cleared)
		w.addr = WorkerAddr(i)
		lis, err := tr.Listen(w.addr)
		if err != nil {
			masterLis.Close()
			return nil, fmt.Errorf("engine: %w", err)
		}
		w.fetchLis = lis
		c.workers = append(c.workers, w)
	}
	for _, w := range c.workers {
		w.peers = c.workers
	}
	for _, w := range c.workers {
		go w.run(c.closed)
	}
	c.master = newMaster(c, masterLis)
	go c.master.run()
	return c, nil
}

// Close stops the master and all workers and waits for the master loop to
// exit, so a Config.Metrics collector is safe to snapshot afterwards.
// Jobs in flight fail; their handles report the closure.
func (c *Cluster) Close() {
	c.once.Do(func() { close(c.closed) })
	<-c.masterDone
}

// Workers returns the total worker count.
func (c *Cluster) Workers() int { return len(c.workers) }

// Suspend pauses a volatile worker: it stops mid-task (at the next
// checkpoint: a map's next emission, which for a map that folds its split
// comes only once the split is read, or a reduce's next source or key),
// stops heartbeating, and stops serving intermediate data.
// Suspending a dedicated worker is rejected.
func (c *Cluster) Suspend(worker int) error {
	if worker < 0 || worker >= len(c.workers) {
		return fmt.Errorf("engine: no worker %d", worker)
	}
	w := c.workers[worker]
	if w.dedicated {
		return fmt.Errorf("engine: worker %d is dedicated and cannot be suspended", worker)
	}
	w.gate.close()
	return nil
}

// Resume un-suspends a worker; its paused work continues.
func (c *Cluster) Resume(worker int) error {
	if worker < 0 || worker >= len(c.workers) {
		return fmt.Errorf("engine: no worker %d", worker)
	}
	c.workers[worker].gate.open()
	return nil
}

// Stats summarizes one job's execution.
type Stats struct {
	MapAttempts    int // map executions launched (>= len(Inputs))
	ReduceAttempts int // reduce executions launched (>= Reduces)
	MapReexecs     int // maps re-executed because their output was lost
	BackupCopies   int // speculative copies issued for frozen tasks
	FetchFailures  int // intermediate fetches that timed out or missed
}

// JobState is the lifecycle phase a job status snapshot reports.
type JobState string

// The job lifecycle: queued (submitted, no attempt launched yet), running,
// done (all reduces committed), failed (the cluster closed under it).
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobStatus is a point-in-time snapshot of one job's progress, published
// by the master at every transition (submit, first launch, each task
// completion, finish/failure). Reads are lock-free, so status polling —
// the service's hottest endpoint — never contends with the master loop.
// The final snapshot is the live engine's per-job execution profile, the
// wall-clock counterpart of the simulator's mapred.Profile.
type JobStatus struct {
	ID       int      `json:"id"`
	Job      string   `json:"job"`
	Priority int      `json:"priority,omitempty"`
	State    JobState `json:"state"`

	MapsDone     int `json:"maps_done"`
	MapsTotal    int `json:"maps_total"`
	ReducesDone  int `json:"reduces_done"`
	ReducesTotal int `json:"reduces_total"`

	Stats Stats `json:"stats"`

	// QueueWait is submission → first attempt launch (how long the job
	// waited for its first slot under the arbitration policy), meaningful
	// once the job launched; Makespan is submission → completion, set once
	// it finished.
	QueueWait time.Duration `json:"queue_wait_ns"`
	Makespan  time.Duration `json:"makespan_ns"`

	// Err is set when State is failed.
	Err string `json:"error,omitempty"`
}

// JobHandle tracks one submitted job. Wait blocks until the job completes
// (or ctx ends); Done exposes the completion signal for select loops;
// Status returns the latest progress snapshot without blocking.
type JobHandle struct {
	id   int
	done chan struct{}

	// status is republished by the master at every transition.
	status atomic.Pointer[JobStatus]

	// Written by the master before done closes; read only after. Result
	// keys are the map side's clones (grouper.id), not substrings of a split.
	results map[string]string
	err     error
}

// ID returns the job's cluster-unique numeric ID.
func (h *JobHandle) ID() int { return h.id }

// Status returns the latest progress snapshot. It never blocks: snapshots
// are published by the master and read atomically.
func (h *JobHandle) Status() JobStatus { return *h.status.Load() }

// Done is closed when the job completes or the cluster closes.
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes and returns its reduce outputs and
// final status. If ctx ends first, the job keeps running (there is no
// preemption) and Wait returns the latest status and ctx.Err(); Wait again
// to re-await it.
func (h *JobHandle) Wait(ctx context.Context) (map[string]string, JobStatus, error) {
	select {
	case <-ctx.Done():
		return nil, h.Status(), ctx.Err()
	case <-h.done:
		return h.results, h.Status(), h.err
	}
}

type submitReq struct {
	job   Job
	reply chan submitResp
}

type submitResp struct {
	h   *JobHandle
	err error
}

// Submit enqueues a job on the master. Concurrent jobs share the worker
// pool under Config.JobPolicy; a job whose name collides with a still-live
// job is rejected (map-output stores and results are keyed by job).
func (c *Cluster) Submit(job Job) (*JobHandle, error) {
	if len(job.Inputs) == 0 || job.Map == nil || job.Reduce == nil || job.Reduces < 1 {
		return nil, errors.New("engine: job needs inputs, Map, Reduce and Reduces >= 1")
	}
	req := submitReq{job: job, reply: make(chan submitResp, 1)}
	select {
	case c.submits <- req:
	case <-c.masterDone:
		return nil, errors.New("engine: cluster closed")
	}
	// The send is a rendezvous: the master has the request and always
	// replies (buffered, so it never blocks) before it can exit, so an
	// accepted job's handle is never lost to a concurrent Close.
	resp := <-req.reply
	return resp.h, resp.err
}

// Drain blocks until every submitted job has finished and its last
// in-flight attempt has retired (straggler and backup copies of a decided
// task keep running to their next checkpoint; results are unaffected, but
// accounting and intermediate stores only settle once they report back).
// Use it before reading a metrics snapshot for a completed workload, or
// before asserting on queue accounting. Returns ctx.Err() if ctx ends
// first, or an error if the cluster closes while draining.
func (c *Cluster) Drain(ctx context.Context) error {
	reply := make(chan struct{})
	select {
	case c.drains <- reply:
	case <-c.masterDone:
		return errors.New("engine: cluster closed")
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-reply:
		return nil
	case <-c.masterDone:
		return errors.New("engine: cluster closed")
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run executes one job and returns the reduce outputs keyed by reduce
// output key: Submit + Wait. Concurrent Runs (and Submits) on one cluster
// are fine — that is the point of the multi-tenant master.
func (c *Cluster) Run(ctx context.Context, job Job) (map[string]string, Stats, error) {
	h, err := c.Submit(job)
	if err != nil {
		return nil, Stats{}, err
	}
	res, st, err := h.Wait(ctx)
	return res, st.Stats, err
}
