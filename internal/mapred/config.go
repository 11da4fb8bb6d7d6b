// Package mapred implements the MapReduce execution layer of the
// reproduction: a Hadoop-0.17-style JobTracker/TaskTracker runtime with
// progress scores, speculative execution, fetch-failure handling and task
// kill/re-execution — plus the MOON scheduling extensions (frozen/slow
// straggler separation, suspension detection with inactive instances, a
// global speculative cap, two-phase homestretch replication, and
// hybrid-aware placement on dedicated nodes).
//
// The JobTracker is multi-tenant: Submit enqueues jobs rather than
// rejecting concurrent submissions, and a pluggable SchedPolicy (FIFO,
// fair-share, weighted-fair or strict-priority — the shared
// internal/sched policy family, see policy.go) arbitrates every free
// execution slot between the running jobs. Per-job state — tasks,
// fetch-failure reporters, the schedule sequence, commit polling — lives
// on the Job, so concurrent jobs are fully independent and a single job
// under FIFO behaves exactly like the historical one-job-at-a-time
// tracker.
//
// Tasks are resource models, not user code: a map is "read an input block,
// compute for S seconds, write I bytes of intermediate data through the
// DFS"; a reduce is "shuffle partitions from every map, compute, write
// output". That is precisely the granularity at which the paper's
// evaluation operates (its scheduling experiments even use the sleep app
// with calibrated durations). The live goroutine engine in internal/engine
// runs real user Map/Reduce functions with the same policies.
//
// The copy phase is the hot part of a run: every map completion and every
// fetch completion pumps each shuffling reduce attempt. A pump costs what
// changed, not the number of maps — shuffleState keeps the maps it still
// wants and the maps in backoff as bit sets beside the job's set of maps
// with an output, and walks only their combination (see shuffleState for
// why backoff entries are walked whether or not their map has an output).
package mapred

import (
	"fmt"

	"repro/internal/dfs"
)

// Policy selects the scheduling algorithm.
type Policy int

const (
	// PolicyHadoop is stock Hadoop 0.17 speculative scheduling.
	PolicyHadoop Policy = iota
	// PolicyMOON is the paper's two-phase, volatility-aware scheduler.
	PolicyMOON
)

func (p Policy) String() string {
	if p == PolicyMOON {
		return "moon"
	}
	return "hadoop"
}

// SchedConfig parameterizes the JobTracker.
type SchedConfig struct {
	Policy Policy

	// JobPolicy arbitrates execution slots across concurrently running
	// jobs; nil selects FIFO. It is orthogonal to Policy, which governs
	// speculative execution *within* each job.
	JobPolicy SchedPolicy
	// Hybrid enables MOON's awareness of dedicated nodes: speculative
	// and homestretch copies prefer dedicated slots, and tasks that
	// already have an active dedicated copy get the lowest replication
	// priority and skip the homestretch.
	Hybrid bool

	MapSlotsPerNode    int // Hadoop default M = 2
	ReduceSlotsPerNode int // Hadoop default R = 2

	// HeartbeatInterval is the TaskTracker heartbeat / scheduling tick.
	HeartbeatInterval float64

	// TrackerExpiry: a TaskTracker silent this long is declared dead and
	// its task instances are killed (Hadoop default 10 min; the paper
	// sweeps 1/5/10 min for Hadoop and uses 30 min for MOON).
	TrackerExpiry float64

	// SuspensionInterval (MOON): a TaskTracker silent this long is
	// *suspended* — instances become inactive (triggering frozen-task
	// handling) but are not killed.
	SuspensionInterval float64

	// SpeculativeCap is the per-task cap on speculative copies beyond
	// the original (Hadoop default 1). Frozen tasks under MOON ignore it.
	SpeculativeCap int

	// SpecSlotFraction (MOON): cap on concurrent speculative instances,
	// as a fraction of currently available execution slots (paper: 20%).
	// The budget is fleet-wide: concurrently running jobs share it in
	// policy order instead of each claiming a full budget.
	SpecSlotFraction float64

	// HomestretchH and HomestretchR (MOON): the homestretch phase begins
	// when remaining tasks < H% of available slots; each remaining task
	// is then kept at >= R active copies (paper: H=20, R=2).
	HomestretchH float64
	HomestretchR int

	// ReduceSlowstart launches reduces once this fraction of maps
	// finished (Hadoop 0.05). It is a field, not a constant, because the
	// map-output-loss tests raise it to 1 so that no reduce starts before
	// every map has finished, a regime 0.05 does not reach.
	ReduceSlowstart float64

	// ParallelCopies is the reducer's concurrent fetch limit (Hadoop 5).
	// It is a field because FuzzPumpVsScan's rig lowers it to 2, so the
	// candidate walk is cut off at the copy limit often.
	ParallelCopies int

	// FetchRetryInterval is the pause before a reducer retries a failed
	// fetch and before a map re-polls the DFS for its input (15 s). It is
	// a field because the map-output-loss tests shorten it to 5 s.
	FetchRetryInterval float64

	// FastFetchReaction applies MOON's query-the-DFS rule for lost map
	// outputs even under the Hadoop policy. The paper found stock Hadoop's
	// >50%-of-reducers rule so slow that "a typical job runs for hours"
	// and patched the same remedy into its augmented Hadoop baseline
	// (Section VI-B); the Hadoop-VO runs of Figure 7 use this flag.
	FastFetchReaction bool
}

// Settings that no experiment of the paper varies (Hadoop 0.17's values
// unless noted).
const (
	// A task is a straggler once it has run stragglerMinRuntime seconds
	// and its progress is at least stragglerGap behind its type's average.
	stragglerMinRuntime = 60
	stragglerGap        = 0.2

	// A reducer notifies the JobTracker about a map output only after
	// fetchReportThreshold failed fetches of its own (Hadoop reducers
	// penalize and retry a host several times before notifying).
	fetchReportThreshold = 3
	// Hadoop re-executes a map once more than hadoopFetchFailureFraction
	// of the running reducers report fetch failures against it.
	hadoopFetchFailureFraction = 0.5
	// After moonFetchFailureCount failures for one map output, MOON asks
	// the DFS for a live replica and re-executes the map if none exists.
	moonFetchFailureCount = 3

	// inputReadRetries bounds how many times a map attempt re-polls the
	// DFS for its input block during churn before the attempt fails.
	inputReadRetries = 40
	// maxTaskAttempts aborts the job once any single task has failed
	// this many times (Hadoop kills a job after 4 failed attempts of a
	// task).
	maxTaskAttempts = 12
)

// DefaultSchedConfig returns the paper's settings for each policy.
func DefaultSchedConfig(p Policy) SchedConfig {
	cfg := SchedConfig{
		Policy:             p,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		HeartbeatInterval:  3,
		TrackerExpiry:      600, // Hadoop default: 10 min
		SuspensionInterval: 0,
		SpeculativeCap:     1,
		SpecSlotFraction:   0.2,
		HomestretchH:       20,
		HomestretchR:       2,
		ReduceSlowstart:    0.05,
		ParallelCopies:     5,
		FetchRetryInterval: 15,
	}
	if p == PolicyMOON {
		cfg.TrackerExpiry = 1800 // 30 min
		cfg.SuspensionInterval = 60
	}
	return cfg
}

// Validate rejects incoherent scheduler configurations.
func (c SchedConfig) Validate() error {
	if c.MapSlotsPerNode <= 0 || c.ReduceSlotsPerNode <= 0 {
		return fmt.Errorf("mapred: slots per node must be positive")
	}
	if c.TrackerExpiry <= 0 {
		return fmt.Errorf("mapred: tracker expiry %v must be positive", c.TrackerExpiry)
	}
	if c.Policy == PolicyMOON && c.SuspensionInterval >= c.TrackerExpiry {
		return fmt.Errorf("mapred: suspension interval %v must be < tracker expiry %v",
			c.SuspensionInterval, c.TrackerExpiry)
	}
	if c.HeartbeatInterval <= 0 {
		return fmt.Errorf("mapred: heartbeat interval must be positive")
	}
	if c.HomestretchR < 0 || c.SpeculativeCap < 0 || c.SpecSlotFraction < 0 {
		return fmt.Errorf("mapred: homestretch R %d, speculative cap %d and slot fraction %v must be >= 0",
			c.HomestretchR, c.SpeculativeCap, c.SpecSlotFraction)
	}
	return nil
}

// JobConfig describes one MapReduce job as a resource model.
type JobConfig struct {
	Name string

	// Priority is the job's strict-priority rank (higher wins every slot
	// offer under the StrictPriority policy; other policies ignore it).
	// Zero is the default rank, so unprioritized jobs tie and fall back
	// to submission order.
	Priority int

	NumMaps    int
	NumReduces int

	// InputFile is the staged DFS input; map i reads block i.
	InputFile string

	// MapCPU / ReduceCPU are per-task compute seconds (excluding all
	// I/O, which is simulated through the DFS and network).
	MapCPU    float64
	ReduceCPU float64

	// IntermediatePerMap is each map's output size in bytes, written to
	// the DFS with IntermediateClass/IntermediateFactor. Every reducer
	// fetches 1/NumReduces of it during shuffle.
	IntermediatePerMap float64
	IntermediateClass  dfs.FileClass
	IntermediateFactor dfs.Factor

	// OutputPerReduce is each reduce's output size in bytes. Under MOON
	// it is written opportunistic and committed (converted to reliable
	// and topped up) at job end; under Hadoop it is written directly at
	// OutputFactor.
	OutputPerReduce float64
	OutputFactor    dfs.Factor

	// SkipInputRead makes maps start computing without reading an input
	// block — the sleep app's behaviour (its splits are synthetic, so
	// the paper's scheduling experiments exercise no input I/O).
	SkipInputRead bool
}

// Validate rejects impossible job descriptions.
func (c JobConfig) Validate() error {
	if c.NumMaps <= 0 || c.NumReduces < 0 {
		return fmt.Errorf("mapred: job %q needs maps > 0, reduces >= 0", c.Name)
	}
	if c.MapCPU < 0 || c.ReduceCPU < 0 {
		return fmt.Errorf("mapred: job %q has negative compute time", c.Name)
	}
	if c.IntermediatePerMap < 0 || c.OutputPerReduce < 0 {
		return fmt.Errorf("mapred: job %q has negative data sizes", c.Name)
	}
	if err := c.IntermediateFactor.Validate(); err != nil && c.IntermediatePerMap > 0 {
		return err
	}
	if err := c.OutputFactor.Validate(); err != nil && c.OutputPerReduce > 0 && c.NumReduces > 0 {
		return err
	}
	return nil
}
