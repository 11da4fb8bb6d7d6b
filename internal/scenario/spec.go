// Package scenario is the declarative experiment API of the reproduction:
// one versioned, JSON-serializable Spec fully describes an experiment —
// cluster and churn (including correlated lab-session outages), stack
// deltas over the Hadoop/MOON presets (net, dfs, sched), workload (single
// or multi-job with staggered or Poisson arrivals and weighted shares),
// sweep axes (rates, seeds, scale, parallelism) and metrics settings.
//
// Specs decode strictly (unknown fields are rejected), validate, default,
// and round-trip losslessly: Parse(WriteJSON(spec)) == spec, byte for byte
// on re-export. Compile lowers a Spec to a harness.Config plus a Plan of
// sweeps; Execute runs the plan. Both flag surfaces are implemented on top
// of this package (FromFlags builds moonbench's Spec, FromSimFlags
// moonsim's), so a flag invocation and the equivalent scenario file produce
// byte-identical output — there is exactly one source of truth for
// experiment assembly.
//
// There is also one vocabulary for a variant line: a VariantSpec, a preset
// plus deltas. The built-in kinds (the paper's figures, the ablations, the
// correlated study, the multi-job policy comparison) are abbreviations:
// paper.go lowers each to the CustomExperiment it stands for, and every
// kind compiles through the one loop custom experiments use, to
// harness.Variant lines the one sweep runner executes. The built-in
// scenario registry is the shipped scenarios/ directory, embedded.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mapred"
	"repro/internal/metrics"
)

// Schema is the versioned identifier of the scenario JSON format. Bump the
// suffix on breaking changes to the Spec layout.
const Schema = "moon-scenario/v1"

// Vocabulary of the flag-compatible enumerations; `moonbench -list` prints
// these.
var (
	// Experiments are the valid built-in experiment selectors. "live"
	// runs the goroutine engine (execution "live") and is not part of
	// "all", which covers the simulated paper evaluation.
	Experiments = []string{
		"fig1", "fig4", "fig5", "fig6", "table2", "fig7", "multi", "ablation", "correlated", "all", "live",
	}
	// Apps are the paper's Table I applications.
	Apps = []string{"sort", "wordcount"}
	// ArrivalProcesses are the supported multi-job submission processes.
	ArrivalProcesses = []string{"staggered", "poisson"}
	// Presets are the stack presets custom variants build on.
	Presets = []string{"hadoop", "moon", "moon-hybrid"}
	// Renders are the output tables an experiment can print.
	Renders = []string{"times", "duplicates", "table2", "multi"}
)

// Spec is one complete, serializable experiment definition.
type Spec struct {
	// Schema must be "moon-scenario/v1".
	Schema string `json:"schema"`
	// Name identifies the scenario; it is stamped (with the spec hash)
	// into exported metrics reports.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Execution selects the backend: "sim" (the default when empty) runs
	// the event-driven simulator; "live" runs the goroutine engine —
	// real Map/Reduce code on a churning worker pool, every experiment a
	// multi-job policy sweep with trace-compressed churn per cell.
	Execution string `json:"execution,omitempty"`
	// Live configures the live engine; only valid with execution "live".
	Live *LiveSpec `json:"live,omitempty"`
	// Sweep sets the shared sweep axes of every experiment in the spec.
	Sweep SweepSpec `json:"sweep,omitzero"`
	// Metrics configures collection for runs that export a report.
	Metrics MetricsSpec `json:"metrics,omitzero"`
	// Experiments run in order; each is one figure, ablation, correlated
	// study, multi-job sweep or fully custom sweep.
	Experiments []Experiment `json:"experiments"`
}

// SweepSpec sets the sweep axes shared by a spec's experiments.
type SweepSpec struct {
	// Seeds lists the churn realizations to average over (default: [1]).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Rates are the machine-unavailability rates to sweep
	// (default: [0.1, 0.3, 0.5], the paper's axis).
	Rates []float64 `json:"rates,omitempty"`
	// Scale divides workload size for quick runs (default 1 = paper
	// scale).
	Scale int `json:"scale,omitempty"`
	// Parallelism bounds concurrent simulations (0 = all cores,
	// 1 = serial); results are identical at any setting.
	Parallelism int `json:"parallelism,omitempty"`
	// ShardWorkers has no effect: the intra-run worker pool it sized is
	// gone, and a simulation is one goroutine. The field is still parsed,
	// range-checked and round-tripped because Parse is strict and
	// bench/workloads/sim-fleet.json sets it.
	ShardWorkers int `json:"shard_workers,omitempty"`
}

// LiveSpec shapes the live goroutine engine of an "execution": "live"
// scenario: the worker pool, the churn-trace compression, and the real
// word-count workload each cell executes. Zero fields keep the harness
// defaults (4 volatile + 1 dedicated workers, 120 s traces at 1 ms per
// simulated second, 8×400-word splits, 3 reducers per job).
type LiveSpec struct {
	// VolatileWorkers can be suspended by churn traces;
	// DedicatedWorkers never churn.
	VolatileWorkers  int `json:"volatile_workers,omitempty"`
	DedicatedWorkers int `json:"dedicated_workers,omitempty"`
	// NoDedicatedReplication disables MOON's hybrid-aware intermediate
	// replication (map outputs then live only on their worker, so churn
	// forces re-execution).
	NoDedicatedReplication bool `json:"no_dedicated_replication,omitempty"`
	// HorizonSeconds is the churn-trace length in simulated seconds; the
	// sweep's rates drive each trace's unavailable fraction.
	HorizonSeconds float64 `json:"horizon_seconds,omitempty"`
	// CompressionMS maps one simulated trace second to this many
	// wall-clock milliseconds.
	CompressionMS float64 `json:"compression_ms,omitempty"`
	// SplitsPerJob / WordsPerSplit / ReducesPerJob size each word-count
	// job.
	SplitsPerJob  int `json:"splits_per_job,omitempty"`
	WordsPerSplit int `json:"words_per_split,omitempty"`
	ReducesPerJob int `json:"reduces_per_job,omitempty"`
	// TimeoutSeconds bounds one cell's wall-clock execution.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Link tunes the engine's failure-handling protocol (per-operation
	// deadlines, retries, heartbeat lease and session clocks). Zero
	// fields keep the engine defaults.
	Link *LinkSpec `json:"link,omitempty"`
	// Faults runs every cell over the fault-injecting transport (seeded
	// drops, duplicates, delays, connection resets, timed partitions).
	// Only valid with execution "live": the simulator models churn, not
	// a lossy message fabric.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// LinkSpec is the failure-handling protocol's knob block, in milliseconds.
// Zero fields inherit the engine defaults (50 ms operation deadlines,
// 10 ms heartbeats against a 50 ms lease, 3 retries backing off from 2 ms,
// sessions that never expire on silence).
type LinkSpec struct {
	// ConnectTimeoutMS bounds one dial including its handshake.
	ConnectTimeoutMS float64 `json:"connect_timeout_ms,omitempty"`
	// SendTimeoutMS / RecvTimeoutMS bound one message operation.
	SendTimeoutMS float64 `json:"send_timeout_ms,omitempty"`
	RecvTimeoutMS float64 `json:"recv_timeout_ms,omitempty"`
	// HeartbeatIntervalMS is the worker's lease-refresh period; it must
	// stay below LeaseDurationMS.
	HeartbeatIntervalMS float64 `json:"heartbeat_interval_ms,omitempty"`
	// LeaseDurationMS is how long a heartbeat keeps a volatile worker's
	// lease fresh; silence beyond it marks the worker suspended.
	LeaseDurationMS float64 `json:"lease_duration_ms,omitempty"`
	// MaxRetries bounds the resends of one unacknowledged message.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoffMS is the initial resend backoff; it doubles per retry.
	RetryBackoffMS float64 `json:"retry_backoff_ms,omitempty"`
	// SessionExpiryMS evicts a session silent this long; the worker must
	// rejoin under a new session and its stale results are discarded.
	// Zero never expires sessions.
	SessionExpiryMS float64 `json:"session_expiry_ms,omitempty"`
}

// FaultSpec parameterizes the deterministic fault injector: every
// per-message decision is a pure function of (seed, connection, sequence
// number), so one seed pins one reproducible fault schedule.
type FaultSpec struct {
	// Seed selects the fault schedule.
	Seed uint64 `json:"seed,omitempty"`
	// DropRate / DupRate / DelayRate / ResetRate are per-message
	// probabilities in [0, 1].
	DropRate  float64 `json:"drop_rate,omitempty"`
	DupRate   float64 `json:"dup_rate,omitempty"`
	DelayRate float64 `json:"delay_rate,omitempty"`
	// DelayMS is how late a delay-selected message arrives.
	DelayMS   float64 `json:"delay_ms,omitempty"`
	ResetRate float64 `json:"reset_rate,omitempty"`
	// Partitions are timed windows during which matching links drop
	// every message, both directions.
	Partitions []PartitionSpec `json:"partitions,omitempty"`
}

// PartitionSpec is one timed partition window, relative to cluster start.
type PartitionSpec struct {
	StartMS float64 `json:"start_ms,omitempty"`
	// DurationMS must be positive.
	DurationMS float64 `json:"duration_ms"`
	// Workers lists the cut workers by index; empty cuts every link
	// (the master included).
	Workers []int `json:"workers,omitempty"`
}

// MetricsSpec configures cross-layer metrics collection.
type MetricsSpec struct {
	// BucketSeconds is the time-series bucket width (default 300,
	// metrics.DefaultBucket). The CLI only collects when an output path
	// is given (-metrics); the spec fixes how, not whether.
	BucketSeconds float64 `json:"bucket_seconds,omitempty"`
}

// Experiment is one entry of a spec: exactly one of Figure, Ablation,
// Correlated, Multi or Custom selects the kind.
type Experiment struct {
	// Figure selects a paper figure sweep: fig1, fig4, fig5, fig6,
	// table2 or fig7 (fig4/fig5 share the scheduling sweep; fig6/table2
	// share the replication sweep).
	Figure string `json:"figure,omitempty"`
	// Ablation selects a named ablation sweep (homestretch, speccap,
	// hibernate, adaptive).
	Ablation string `json:"ablation,omitempty"`
	// Correlated selects the correlated lab-session churn comparison.
	Correlated bool `json:"correlated,omitempty"`
	// App is the workload ("sort" or "wordcount") for figure (except
	// fig1), ablation, correlated and multi experiments; custom
	// experiments carry their app inside the workload.
	App string `json:"app,omitempty"`
	// Renders overrides the tables printed from the sweep ("times",
	// "duplicates", "table2", "multi"); empty selects the kind's
	// default.
	Renders []string `json:"renders,omitempty"`
	// Multi is the policy-comparison multi-job sweep (the moonbench
	// -experiment multi surface).
	Multi *MultiExperiment `json:"multi,omitempty"`
	// Custom is a fully declarative sweep: explicit workload and
	// variant lines with stack deltas over the presets.
	Custom *CustomExperiment `json:"custom,omitempty"`
}

// MultiExperiment sweeps job-arbitration policies over one identical
// stream of sleep jobs (scheduling-isolated, like Figures 4/5).
type MultiExperiment struct {
	// Jobs is the number of jobs per run.
	Jobs int `json:"jobs"`
	// Arrivals is "staggered" (default) or "poisson".
	Arrivals string `json:"arrivals,omitempty"`
	// IntervalSeconds is the stagger gap or the Poisson mean
	// inter-arrival time.
	IntervalSeconds float64 `json:"interval_seconds,omitempty"`
	// LambdaPerHour is the Poisson arrival rate in jobs/hour, an
	// alternative to IntervalSeconds (exactly one of the two for
	// poisson).
	LambdaPerHour float64 `json:"lambda_per_hour,omitempty"`
	// ArrivalSeed drives the Poisson offset draws, independent of the
	// churn seeds.
	ArrivalSeed uint64 `json:"arrival_seed,omitempty"`
	// Policies lists the arbitration policies to compare, one variant
	// line each (default: fifo and fair).
	Policies []string `json:"policies,omitempty"`
	// Weights are per-job-name weights for the weighted policy (jobs of
	// an n-job stream are named <base>-j0 .. <base>-j<n-1>; live jobs
	// live-j0 .. live-j<n-1>).
	Weights map[string]float64 `json:"weights,omitempty"`
	// Priorities are per-job-name strict-priority ranks for the priority
	// policy (higher wins; absent jobs rank 0).
	Priorities map[string]int `json:"priorities,omitempty"`
}

// CustomExperiment is a declarative sweep: a workload plus variant lines,
// each a stack preset with deltas.
type CustomExperiment struct {
	Title string `json:"title"`
	// Cluster overrides the paper testbed (60 volatile + 6 dedicated)
	// for every variant; a variant's own Cluster replaces it entirely.
	Cluster  *ClusterSpec  `json:"cluster,omitempty"`
	Workload WorkloadSpec  `json:"workload"`
	Variants []VariantSpec `json:"variants"`
}

// WorkloadSpec describes a custom experiment's workload.
type WorkloadSpec struct {
	// App is "sort" or "wordcount" (Table I models).
	App string `json:"app"`
	// Sleep replays the app's task counts and measured durations with
	// negligible data movement (the paper's scheduling-isolation app).
	Sleep bool `json:"sleep,omitempty"`
	// ReduceSlots fixes the slot count sort's reduce fan-out is derived
	// from (NumReduces = 0.9 x slots) instead of the variant's fleet at
	// 2 per node. Scale scenarios need it: without the pin, a 100k-node
	// fleet turns every sort into a 180k-reduce job, and the point of a
	// huge-fleet line is a fixed workload (the paper's 66-node testbed
	// is reduce_slots 132). Sort only — wordcount's fan-out is fixed.
	ReduceSlots *int `json:"reduce_slots,omitempty"`

	// Jobs > 1 turns the workload into a multi-job stream; the fields
	// below shape the arrival process.
	Jobs int `json:"jobs,omitempty"`
	// Arrivals is "staggered" (default) or "poisson".
	Arrivals string `json:"arrivals,omitempty"`
	// IntervalSeconds is the stagger gap or Poisson mean inter-arrival.
	IntervalSeconds float64 `json:"interval_seconds,omitempty"`
	// ArrivalSeed drives Poisson offset draws.
	ArrivalSeed uint64 `json:"arrival_seed,omitempty"`
	// MixScale > 1 alternates full-size jobs with copies scaled down by
	// this factor (staggered arrivals only) — the heterogeneous mix
	// where small jobs queue behind or overtake large ones.
	MixScale int `json:"mix_scale,omitempty"`

	// Replication overrides applied to the base app spec.
	InputFactor        *FactorSpec `json:"input_factor,omitempty"`
	IntermediateFactor *FactorSpec `json:"intermediate_factor,omitempty"`
	// IntermediateClass is "opportunistic" or "reliable".
	IntermediateClass string      `json:"intermediate_class,omitempty"`
	OutputFactor      *FactorSpec `json:"output_factor,omitempty"`

	// Set only where a built-in kind lowers to its custom form (paper.go),
	// never from JSON. stream makes the workload a renamed job stream even
	// at one job (the multi kind); priorities are ranks applied to the
	// stream under every variant.
	stream     bool
	priorities map[string]int
}

// isStream reports whether the workload runs and renders as a job stream
// rather than as one plain job.
func (w *WorkloadSpec) isStream() bool { return w.Jobs > 1 || w.stream }

// FactorSpec is MOON's two-dimensional replication factor {d,v}.
type FactorSpec struct {
	D int `json:"d"`
	V int `json:"v"`
}

// VariantSpec is one configuration line of a custom sweep: a preset plus
// deltas.
type VariantSpec struct {
	Label string `json:"label"`
	// Preset is "hadoop" (stock, 10-min tracker expiry), "moon" or
	// "moon-hybrid".
	Preset string `json:"preset"`
	// Cluster replaces the experiment-level cluster for this variant.
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	Sched   *SchedDelta  `json:"sched,omitempty"`
	DFS     *DFSDelta    `json:"dfs,omitempty"`
	Net     *NetDelta    `json:"net,omitempty"`
	// IntermediateFactor overrides the workload's intermediate
	// replication for this line (the Figure 6 axis).
	IntermediateFactor *FactorSpec `json:"intermediate_factor,omitempty"`
	// Policy arbitrates slots between the jobs of a multi-job workload
	// ("fifo", "fair", "weighted", "priority"; empty = fifo).
	Policy string `json:"policy,omitempty"`
	// Weights are per-job-name weights; they require Policy "weighted".
	Weights map[string]float64 `json:"weights,omitempty"`
	// Priorities are per-job-name strict-priority ranks; they require
	// Policy "priority".
	Priorities map[string]int `json:"priorities,omitempty"`

	// workload, set only by a built-in kind's lowering (paper.go), replaces
	// the experiment's workload for this line.
	workload *WorkloadSpec
}

// ClusterSpec describes the emulated fleet and its churn. Volatile and
// Dedicated are pointers so that an explicit zero ("no dedicated nodes")
// is distinguishable from "use the paper testbed" (60 volatile + 6
// dedicated).
type ClusterSpec struct {
	Volatile  *int `json:"volatile,omitempty"`
	Dedicated *int `json:"dedicated,omitempty"`
	// AllVolatile churns the dedicated nodes too (the Hadoop baseline,
	// which cannot tell the classes apart).
	AllVolatile bool `json:"all_volatile,omitempty"`
	// HorizonSeconds is the trace length (default 8 hours).
	HorizonSeconds float64 `json:"horizon_seconds,omitempty"`
	// Outage overrides the paper's mean-409 s truncated-normal outage
	// model; the sweep's rate always drives the unavailable fraction.
	Outage *OutageSpec `json:"outage,omitempty"`
	// Correlated layers group-correlated lab-session outages on top of
	// the independent churn.
	Correlated *CorrelatedSpec `json:"correlated,omitempty"`
}

// OutageSpec overrides the synthetic outage model; zero fields keep the
// paper's values (mean 409 s, stddev 200 s, clamp [30 s, 3600 s]).
type OutageSpec struct {
	MeanSeconds   float64 `json:"mean_seconds,omitempty"`
	StddevSeconds float64 `json:"stddev_seconds,omitempty"`
	MinSeconds    float64 `json:"min_seconds,omitempty"`
	MaxSeconds    float64 `json:"max_seconds,omitempty"`
}

// CorrelatedSpec overrides the lab-session model; zero fields keep the
// defaults (10-node groups, 2 sessions, hour-long, 90% participation).
type CorrelatedSpec struct {
	GroupSize            int     `json:"group_size,omitempty"`
	SessionsPerGroup     int     `json:"sessions_per_group,omitempty"`
	SessionMeanSeconds   float64 `json:"session_mean_seconds,omitempty"`
	SessionStddevSeconds float64 `json:"session_stddev_seconds,omitempty"`
	Participation        float64 `json:"participation,omitempty"`
}

// SchedDelta overrides scheduler parameters over the preset; nil fields
// keep the preset's value.
type SchedDelta struct {
	TrackerExpirySeconds      *float64 `json:"tracker_expiry_seconds,omitempty"`
	SuspensionIntervalSeconds *float64 `json:"suspension_interval_seconds,omitempty"`
	HeartbeatIntervalSeconds  *float64 `json:"heartbeat_interval_seconds,omitempty"`
	SpeculativeCap            *int     `json:"speculative_cap,omitempty"`
	SpecSlotFraction          *float64 `json:"spec_slot_fraction,omitempty"`
	HomestretchH              *float64 `json:"homestretch_h,omitempty"`
	HomestretchR              *int     `json:"homestretch_r,omitempty"`
	FastFetchReaction         *bool    `json:"fast_fetch_reaction,omitempty"`
	MapSlotsPerNode           *int     `json:"map_slots_per_node,omitempty"`
	ReduceSlotsPerNode        *int     `json:"reduce_slots_per_node,omitempty"`
}

// DFSDelta overrides data-layer parameters over the preset.
type DFSDelta struct {
	// Mode replaces the preset's data layer wholesale ("hadoop" or
	// "moon") before the other deltas apply — e.g. Hadoop scheduling on
	// the MOON storage layer, the paper's augmented baseline.
	Mode                     *string  `json:"mode,omitempty"`
	HibernateIntervalSeconds *float64 `json:"hibernate_interval_seconds,omitempty"`
	ExpiryIntervalSeconds    *float64 `json:"expiry_interval_seconds,omitempty"`
	AvailabilityTarget       *float64 `json:"availability_target,omitempty"`
	MaxAdaptiveV             *int     `json:"max_adaptive_v,omitempty"`
	MaxReplicationStreams    *int     `json:"max_replication_streams,omitempty"`
}

// NetDelta overrides fabric capacities over the defaults (1 GbE NICs,
// commodity disks).
type NetDelta struct {
	NodeBandwidthBytes  *float64 `json:"node_bandwidth_bytes,omitempty"`
	DiskBandwidthBytes  *float64 `json:"disk_bandwidth_bytes,omitempty"`
	StallTimeoutSeconds *float64 `json:"stall_timeout_seconds,omitempty"`
}

// Parse decodes a spec strictly: unknown fields are an error (a typo'd
// field must not silently vanish), and the schema line must match.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if s.Schema != Schema {
		return nil, fmt.Errorf("scenario: schema %q (this build reads %q)", s.Schema, Schema)
	}
	return &s, nil
}

// WriteJSON writes the spec in its canonical form: indented JSON, fields
// in declaration order. Parsing the output and re-exporting reproduces the
// bytes exactly.
func (s *Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Hash returns a short content hash of the spec's canonical encoding, for
// provenance stamps in exported reports.
func (s *Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec contains only marshalable kinds; keep the signature
		// error-free.
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// withDefaults returns a copy with the schema and metrics defaults filled
// in (the sweep axes default in harnessConfig). The stored spec is never
// mutated: defaults apply at validation and compile time, so round-tripping
// a sparse spec stays lossless.
func (s *Spec) withDefaults() Spec {
	out := *s
	if out.Schema == "" {
		out.Schema = Schema
	}
	if out.Metrics.BucketSeconds == 0 {
		out.Metrics.BucketSeconds = metrics.DefaultBucket
	}
	return out
}

// harnessConfig lowers the sweep axes to a harness.Config; empty axes take
// the harness's defaults.
func (s *Spec) harnessConfig() harness.Config {
	return harness.Config{
		Seeds:         s.Sweep.Seeds,
		Scale:         s.Sweep.Scale,
		Rates:         s.Sweep.Rates,
		Parallelism:   s.Sweep.Parallelism,
		MetricsBucket: s.withDefaults().Metrics.BucketSeconds,
	}.WithDefaults()
}

// NewReport returns an empty metrics report for the given tool, stamped
// with the scenario's name and spec hash.
func (s *Spec) NewReport(tool string) *metrics.Export {
	report := metrics.NewExport(tool)
	report.Scenario = s.Name
	report.SpecHash = s.Hash()
	return report
}

// Validate checks the whole spec statically: schema, sweep axes (via
// harness.Config.Validate), and every experiment's vocabulary and shape.
// A valid spec always compiles.
func (s *Spec) Validate() error {
	if s.Schema != Schema {
		return fmt.Errorf("scenario: schema %q (want %q)", s.Schema, Schema)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if err := s.harnessConfig().Validate(); err != nil {
		return err
	}
	if s.Sweep.Scale < 0 || s.Sweep.Parallelism < 0 || s.Sweep.ShardWorkers < 0 {
		return fmt.Errorf("scenario: negative sweep scale/parallelism/shard_workers")
	}
	if s.Metrics.BucketSeconds < 0 || math.IsNaN(s.Metrics.BucketSeconds) {
		return fmt.Errorf("scenario: metrics bucket %v", s.Metrics.BucketSeconds)
	}
	if len(s.Experiments) == 0 {
		return fmt.Errorf("scenario: %q has no experiments", s.Name)
	}
	live := false
	switch s.Execution {
	case "", "sim":
		if s.Live != nil && s.Live.Faults != nil {
			// Name the sharper mistake first: fault injection exercises
			// the live engine's transport; the simulator has no message
			// fabric to make flaky.
			return fmt.Errorf("scenario: %q has a faults block but execution %q (fault injection needs \"execution\": \"live\")", s.Name, s.Execution)
		}
		if s.Live != nil {
			return fmt.Errorf("scenario: %q has live settings but execution %q (want \"live\")", s.Name, s.Execution)
		}
	case "live":
		live = true
		if err := s.Live.validate(); err != nil {
			return fmt.Errorf("scenario: %q: %w", s.Name, err)
		}
	default:
		return fmt.Errorf("scenario: %q execution %q (want sim or live)", s.Name, s.Execution)
	}
	for i := range s.Experiments {
		e := &s.Experiments[i]
		var err error
		if live {
			err = e.validateLive()
		} else if err = e.validate(); err == nil && e.Figure != "fig1" { // fig1 has no stack
			err = e.lower().custom.validateStacks()
		}
		if err != nil {
			return fmt.Errorf("scenario: %q experiment %d: %w", s.Name, i, err)
		}
	}
	return nil
}

func (l *LiveSpec) validate() error {
	if l == nil {
		return nil
	}
	if l.VolatileWorkers < 0 || l.DedicatedWorkers < 0 {
		return fmt.Errorf("live worker counts (%d volatile, %d dedicated)", l.VolatileWorkers, l.DedicatedWorkers)
	}
	for _, f := range []namedFloat{
		{"horizon_seconds", l.HorizonSeconds},
		{"compression_ms", l.CompressionMS},
		{"timeout_seconds", l.TimeoutSeconds},
	} {
		if f.v < 0 || math.IsNaN(f.v) {
			return fmt.Errorf("live %s %v", f.name, f.v)
		}
	}
	if l.SplitsPerJob < 0 || l.WordsPerSplit < 0 || l.ReducesPerJob < 0 {
		return fmt.Errorf("live job sizing must be >= 0")
	}
	if lk := l.Link; lk != nil {
		for _, f := range []namedFloat{
			{"connect_timeout_ms", lk.ConnectTimeoutMS},
			{"send_timeout_ms", lk.SendTimeoutMS},
			{"recv_timeout_ms", lk.RecvTimeoutMS},
			{"heartbeat_interval_ms", lk.HeartbeatIntervalMS},
			{"lease_duration_ms", lk.LeaseDurationMS},
			{"retry_backoff_ms", lk.RetryBackoffMS},
			{"session_expiry_ms", lk.SessionExpiryMS},
		} {
			if f.v < 0 || math.IsNaN(f.v) {
				return fmt.Errorf("live link %s %v (want >= 0)", f.name, f.v)
			}
		}
		if lk.MaxRetries < 0 {
			return fmt.Errorf("live link max_retries %d (want >= 0)", lk.MaxRetries)
		}
	}
	if f := l.Faults; f != nil {
		if math.IsNaN(f.DelayMS) || f.DelayMS < 0 {
			return fmt.Errorf("live faults delay_ms %v (want >= 0)", f.DelayMS)
		}
		for i, p := range f.Partitions {
			if math.IsNaN(p.StartMS) || math.IsNaN(p.DurationMS) {
				return fmt.Errorf("live faults partition %d has a NaN window", i)
			}
			for _, w := range p.Workers {
				if w < 0 {
					return fmt.Errorf("live faults partition %d worker index %d (want >= 0)", i, w)
				}
			}
		}
	}
	// Deep check: lower to the engine configuration a cell would run and
	// validate it, so clock mistakes (heartbeat at or past the lease,
	// out-of-range fault rates, malformed partition windows) fail at
	// compile time, not mid-sweep.
	if err := l.liveConfig().Validate(); err != nil {
		return err
	}
	return nil
}

// validateLive checks an experiment under execution "live": only multi-job
// policy sweeps apply (the engine executes real word counts — figures,
// ablations and custom stack deltas are simulator concepts) and renders
// are fixed. An explicit arrival process staggers submissions in
// compressed wall-clock time; with none, jobs are submitted together (the
// historical live default).
func (e *Experiment) validateLive() error {
	if e.Multi == nil {
		return fmt.Errorf("live execution runs multi-job experiments only (figure/ablation/correlated/custom are simulator sweeps)")
	}
	if e.Figure != "" || e.Ablation != "" || e.Correlated || e.Custom != nil {
		return fmt.Errorf("live execution runs multi-job experiments only")
	}
	if e.App != "" && e.App != "wordcount" {
		return fmt.Errorf("live app %q (the engine executes real word counts; want wordcount or empty)", e.App)
	}
	if len(e.Renders) > 0 {
		return fmt.Errorf("renders do not apply to live execution")
	}
	m := e.Multi
	if m.Jobs < 1 {
		return fmt.Errorf("live multi needs jobs >= 1 (got %d)", m.Jobs)
	}
	if m.Arrivals == "" {
		if m.IntervalSeconds != 0 || m.LambdaPerHour != 0 || m.ArrivalSeed != 0 {
			return fmt.Errorf("live arrival fields need an explicit arrivals process (\"staggered\" or \"poisson\"; empty submits every job together)")
		}
	} else if err := validateArrivals(m.Arrivals, m.IntervalSeconds, m.LambdaPerHour); err != nil {
		return err
	}
	return m.validatePolicies()
}

func (e *Experiment) validate() error {
	kinds := 0
	for _, set := range []bool{e.Figure != "", e.Ablation != "", e.Correlated, e.Multi != nil, e.Custom != nil} {
		if set {
			kinds++
		}
	}
	if kinds != 1 {
		return fmt.Errorf("want exactly one of figure, ablation, correlated, multi or custom (got %d)", kinds)
	}

	needApp := e.Figure != "" && e.Figure != "fig1" || e.Ablation != "" || e.Correlated || e.Multi != nil
	if needApp && !slices.Contains(Apps, e.App) {
		return fmt.Errorf("app %q (want sort or wordcount)", e.App)
	}
	if !needApp && e.App != "" {
		return fmt.Errorf("app %q is set but unused here (custom experiments name the app in their workload; fig1 has none)", e.App)
	}

	multi := e.Multi != nil || e.Custom != nil && e.Custom.Workload.isStream()
	for _, r := range e.Renders {
		if !slices.Contains(Renders, r) {
			return fmt.Errorf("unknown render %q (want %s)", r, joinOr(Renders))
		}
		if e.Figure == "fig1" {
			return fmt.Errorf("fig1 renders nothing but the trace table")
		}
		if (r == "multi") != multi {
			return fmt.Errorf("render %q does not apply to this experiment kind", r)
		}
		// Table II reads the replication sweep's VO-*/HA-* columns; on any
		// other sweep it would print a silently all-zero table.
		if r == "table2" && e.Figure != "fig6" && e.Figure != "table2" {
			return fmt.Errorf("render \"table2\" only applies to the fig6/table2 replication sweep")
		}
	}

	switch {
	case e.Figure != "":
		switch e.Figure {
		case "fig1", "fig4", "fig5", "fig6", "table2", "fig7":
		default:
			return fmt.Errorf("unknown figure %q (want fig1, fig4, fig5, fig6, table2 or fig7)", e.Figure)
		}
	case e.Ablation != "":
		if !slices.Contains(AblationNames, e.Ablation) {
			return fmt.Errorf("unknown ablation %q (want %s)", e.Ablation, joinOr(AblationNames))
		}
	case e.Multi != nil:
		return e.Multi.validate()
	case e.Custom != nil:
		return e.Custom.validate()
	}
	return nil
}

func (m *MultiExperiment) validate() error {
	if m.Jobs < 1 {
		return fmt.Errorf("multi needs jobs >= 1 (got %d)", m.Jobs)
	}
	if err := validateArrivals(m.Arrivals, m.IntervalSeconds, m.LambdaPerHour); err != nil {
		return err
	}
	return m.validatePolicies()
}

// validatePolicies checks the policy list (every name must resolve — a
// typo is a hard error, never a silent FIFO) and that weights/priorities
// only appear alongside the policy that reads them. Policy names are
// canonicalized, so alias spellings ("weighted-fair", "strict-priority")
// carry their weights/priorities too.
func (m *MultiExperiment) validatePolicies() error {
	canonical := make([]string, 0, len(m.Policies))
	for _, p := range m.Policies {
		pol, err := mapred.JobPolicyByName(p)
		if err != nil {
			return err
		}
		if slices.Contains(canonical, pol.Name()) {
			// Variant lines are labeled (and sweep cells keyed) by the
			// canonical policy name; a duplicate would silently clobber
			// the first line's results.
			return fmt.Errorf("policy %q duplicates %q", p, pol.Name())
		}
		canonical = append(canonical, pol.Name())
	}
	if len(m.Weights) > 0 && !slices.Contains(canonical, "weighted") {
		return fmt.Errorf("weights need the \"weighted\" policy in policies")
	}
	if len(m.Priorities) > 0 && !slices.Contains(canonical, "priority") {
		return fmt.Errorf("priorities need the \"priority\" policy in policies")
	}
	return validateWeights(m.Weights)
}

func (c *CustomExperiment) validate() error {
	if c.Title == "" {
		return fmt.Errorf("custom needs a title")
	}
	if err := c.Cluster.validate(); err != nil {
		return err
	}
	if err := c.Workload.validate(); err != nil {
		return err
	}
	if len(c.Variants) == 0 {
		return fmt.Errorf("custom %q has no variants", c.Title)
	}
	labels := make(map[string]bool, len(c.Variants))
	for i := range c.Variants {
		v := &c.Variants[i]
		if v.Label == "" {
			return fmt.Errorf("custom %q variant %d has no label", c.Title, i)
		}
		if labels[v.Label] {
			return fmt.Errorf("custom %q duplicates variant label %q", c.Title, v.Label)
		}
		labels[v.Label] = true
		if err := v.validate(c.Workload.isStream()); err != nil {
			return fmt.Errorf("variant %q: %w", v.Label, err)
		}
	}
	return nil
}

// validateStacks builds each line's stack options once, as its cells will,
// and validates them, so a delta the model cannot run (a suspension
// interval past the tracker expiry, a zero adaptive clamp, a negative
// expiry) is rejected before the first cell runs instead of mid-sweep.
func (c *CustomExperiment) validateStacks() error {
	for i := range c.Variants {
		v := &c.Variants[i]
		opts := buildOptions(v, c.clusterOf(v), core.ClusterSpec{})
		err := opts.Sched.Validate()
		if err == nil {
			err = opts.DFS.Validate()
		}
		if err != nil {
			return fmt.Errorf("variant %q: %w", v.Label, err)
		}
	}
	return nil
}

func (w *WorkloadSpec) validate() error {
	if !slices.Contains(Apps, w.App) {
		return fmt.Errorf("workload app %q (want sort or wordcount)", w.App)
	}
	if w.Jobs < 0 {
		return fmt.Errorf("workload jobs %d", w.Jobs)
	}
	if w.isStream() {
		if err := validateArrivals(w.Arrivals, w.IntervalSeconds, 0); err != nil {
			return err
		}
		if w.MixScale < 0 || w.MixScale == 1 {
			return fmt.Errorf("mix_scale %d (want 0 or >= 2)", w.MixScale)
		}
		if w.MixScale > 1 && w.Arrivals == "poisson" {
			return fmt.Errorf("mix_scale requires staggered arrivals")
		}
	} else if w.Arrivals != "" || w.IntervalSeconds != 0 || w.MixScale != 0 || w.ArrivalSeed != 0 {
		return fmt.Errorf("arrival fields need jobs > 1")
	}
	if w.ReduceSlots != nil {
		if *w.ReduceSlots <= 0 {
			return fmt.Errorf("reduce_slots %d (want > 0)", *w.ReduceSlots)
		}
		if w.App != "sort" {
			return fmt.Errorf("reduce_slots applies to sort only (app %q has fixed reduces)", w.App)
		}
	}
	switch w.IntermediateClass {
	case "", "opportunistic", "reliable":
	default:
		return fmt.Errorf("intermediate_class %q (want opportunistic or reliable)", w.IntermediateClass)
	}
	for _, f := range []*FactorSpec{w.InputFactor, w.IntermediateFactor, w.OutputFactor} {
		if err := f.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (f *FactorSpec) validate() error {
	if f == nil {
		return nil
	}
	if f.D < 0 || f.V < 0 || f.D+f.V == 0 {
		return fmt.Errorf("replication factor {%d,%d} (want d,v >= 0, d+v > 0)", f.D, f.V)
	}
	return nil
}

func (v *VariantSpec) validate(multi bool) error {
	if !slices.Contains(Presets, v.Preset) {
		return fmt.Errorf("preset %q (want %s)", v.Preset, joinOr(Presets))
	}
	if err := v.Cluster.validate(); err != nil {
		return err
	}
	if err := v.IntermediateFactor.validate(); err != nil {
		return err
	}
	policyName := ""
	if v.Policy != "" {
		if !multi {
			return fmt.Errorf("policy %q needs a multi-job workload", v.Policy)
		}
		pol, err := mapred.JobPolicyByName(v.Policy)
		if err != nil {
			return err
		}
		policyName = pol.Name()
	}
	if len(v.Weights) > 0 && policyName != "weighted" {
		return fmt.Errorf("weights need policy \"weighted\"")
	}
	if len(v.Priorities) > 0 && policyName != "priority" {
		return fmt.Errorf("priorities need policy \"priority\"")
	}
	if err := validateWeights(v.Weights); err != nil {
		return err
	}
	if v.Sched != nil {
		s := v.Sched
		for _, f := range []namedFloatPtr{
			{"tracker_expiry_seconds", s.TrackerExpirySeconds},
			{"heartbeat_interval_seconds", s.HeartbeatIntervalSeconds},
			{"suspension_interval_seconds", s.SuspensionIntervalSeconds},
			{"spec_slot_fraction", s.SpecSlotFraction},
			{"homestretch_h", s.HomestretchH},
		} {
			if f.p != nil && (*f.p < 0 || math.IsNaN(*f.p)) {
				return fmt.Errorf("sched %s %v", f.name, *f.p)
			}
		}
	}
	if d := v.DFS; d != nil && d.Mode != nil && *d.Mode != "hadoop" && *d.Mode != "moon" {
		return fmt.Errorf("dfs mode %q (want hadoop or moon)", *d.Mode)
	}
	if v.Net != nil {
		n := v.Net
		for _, f := range []namedFloatPtr{
			{"node_bandwidth_bytes", n.NodeBandwidthBytes},
			{"disk_bandwidth_bytes", n.DiskBandwidthBytes},
			{"stall_timeout_seconds", n.StallTimeoutSeconds},
		} {
			if f.p != nil && (*f.p <= 0 || math.IsNaN(*f.p)) {
				return fmt.Errorf("net %s %v (want > 0)", f.name, *f.p)
			}
		}
	}
	return nil
}

func (c *ClusterSpec) validate() error {
	if c == nil {
		return nil
	}
	vol, ded := 60, 6
	if c.Volatile != nil {
		vol = *c.Volatile
	}
	if c.Dedicated != nil {
		ded = *c.Dedicated
	}
	if vol < 0 || ded < 0 || vol+ded == 0 {
		return fmt.Errorf("cluster needs nodes (got %d volatile, %d dedicated)", vol, ded)
	}
	if c.HorizonSeconds < 0 {
		return fmt.Errorf("cluster horizon %v", c.HorizonSeconds)
	}
	if o := c.Outage; o != nil {
		if o.MeanSeconds < 0 || o.StddevSeconds < 0 || o.MinSeconds < 0 ||
			o.MaxSeconds < 0 || o.MaxSeconds > 0 && o.MaxSeconds < o.MinSeconds {
			return fmt.Errorf("outage model [%v,%v] mean %v stddev %v",
				o.MinSeconds, o.MaxSeconds, o.MeanSeconds, o.StddevSeconds)
		}
	}
	if cc := c.Correlated; cc != nil {
		if cc.GroupSize < 0 || cc.SessionsPerGroup < 0 || cc.SessionMeanSeconds < 0 ||
			cc.SessionStddevSeconds < 0 || cc.Participation < 0 || cc.Participation > 1 {
			return fmt.Errorf("correlated model: negative field or participation outside [0,1]")
		}
	}
	return nil
}

func validateArrivals(process string, interval, lambda float64) error {
	if math.IsNaN(interval) || math.IsNaN(lambda) {
		return fmt.Errorf("NaN arrival interval/lambda")
	}
	switch process {
	case "", "staggered":
		if lambda != 0 {
			return fmt.Errorf("lambda_per_hour needs poisson arrivals")
		}
		if interval < 0 {
			return fmt.Errorf("interval_seconds %v", interval)
		}
	case "poisson":
		if (interval > 0) == (lambda > 0) {
			return fmt.Errorf("poisson arrivals need exactly one of interval_seconds or lambda_per_hour > 0")
		}
		if interval < 0 || lambda < 0 {
			return fmt.Errorf("negative arrival interval/lambda")
		}
	default:
		return fmt.Errorf("unknown arrival process %q (want staggered or poisson)", process)
	}
	return nil
}

func validateWeights(w map[string]float64) error {
	// Sorted keys so the reported weight is deterministic when several
	// are invalid (detrange-pinned).
	names := make([]string, 0, len(w))
	for name := range w {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if wt := w[name]; wt <= 0 || math.IsNaN(wt) {
			return fmt.Errorf("weight %v for job %q (want > 0)", wt, name)
		}
	}
	return nil
}

// namedFloat and namedFloatPtr order the field tables the validators
// iterate: ranging a map literal here would make which invalid field
// gets reported depend on randomized map order.
type namedFloat struct {
	name string
	v    float64
}

type namedFloatPtr struct {
	name string
	p    *float64
}

// joinOr renders a vocabulary list for error messages: "a, b or c".
func joinOr(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	}
	out := ""
	for i, n := range names[:len(names)-1] {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out + " or " + names[len(names)-1]
}
