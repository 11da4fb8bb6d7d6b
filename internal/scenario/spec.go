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
	"strings"

	"repro/internal/harness"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/sched"
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
// word-count workload each cell executes. Zero fields keep the defaults
// liveCell states.
type LiveSpec struct {
	// VolatileWorkers can be suspended by churn traces;
	// DedicatedWorkers never churn.
	VolatileWorkers  int `json:"volatile_workers,omitempty"`
	DedicatedWorkers int `json:"dedicated_workers,omitempty"`
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
	// Link sets the engine's failure-handling protocol; its one setting
	// is the session-expiry clock.
	Link *LinkSpec `json:"link,omitempty"`
	// Faults runs every cell over the fault-injecting transport (seeded
	// drops, duplicates, delays, connection resets, timed partitions).
	// Only valid with execution "live": the simulator models churn, not
	// a lossy message fabric.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// LinkSpec is the failure-handling protocol's one setting. Every other
// clock of the protocol (operation deadlines, heartbeat and lease, retries
// and backoff) is a constant of the engine, and Parse refuses a spec that
// still sets one, naming the field.
type LinkSpec struct {
	// SessionExpiryMS evicts a session silent this long; the worker must
	// rejoin under a new session and its stale results are discarded.
	// Zero never expires sessions; otherwise it must be at least the
	// engine's 50 ms lease.
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

// Validate reports whether the spec runs: it is Compile without the run.
// The scenario states only what the schema alone knows (names and
// vocabularies, one kind per experiment, fields that exclude or need each
// other) and lowers every experiment the way Compile does. Every line it
// lowers to is then checked at every sweep rate by the validators of the
// packages that own its values (harness.Config.ValidateLines), so a valid
// spec runs, and a rejection names the JSON path of the line it came from.
func (s *Spec) Validate() error {
	_, err := Compile(s)
	return err
}

// validate checks the spec's top level: the schema line, the name, and the
// backend with the blocks it takes.
func (s *Spec) validate() error {
	if s.Schema != Schema {
		return fmt.Errorf("scenario: schema %q (want %q)", s.Schema, Schema)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if s.Sweep.ShardWorkers < 0 {
		return fmt.Errorf("scenario: %q sweep.shard_workers %d (want >= 0)", s.Name, s.Sweep.ShardWorkers)
	}
	if len(s.Experiments) == 0 {
		return fmt.Errorf("scenario: %q has no experiments", s.Name)
	}
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
	default:
		return fmt.Errorf("scenario: %q execution %q (want sim or live)", s.Name, s.Execution)
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
	if e.Multi == nil || e.Figure != "" || e.Ablation != "" || e.Correlated || e.Custom != nil {
		return fmt.Errorf("live execution runs multi-job experiments only (figure/ablation/correlated/custom are simulator sweeps)")
	}
	if e.App != "" && e.App != "wordcount" {
		return fmt.Errorf("live app %q (the engine executes real word counts; want wordcount or empty)", e.App)
	}
	if len(e.Renders) > 0 {
		return fmt.Errorf("renders do not apply to live execution")
	}
	m := e.Multi
	if err := checkJobs(m.Jobs); err != nil {
		return at("multi", err)
	}
	if m.Arrivals == "" {
		if m.IntervalSeconds != 0 || m.LambdaPerHour != 0 || m.ArrivalSeed != 0 {
			return at("multi", fmt.Errorf("arrival fields need an explicit arrivals process (\"staggered\" or \"poisson\"; empty submits every job together)"))
		}
	} else if err := validateArrivals(m.Arrivals, m.IntervalSeconds, m.LambdaPerHour); err != nil {
		return at("multi", err)
	}
	return nil
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
		if err := checkJobs(e.Multi.Jobs); err != nil {
			return at("multi", err)
		}
		if err := validateArrivals(e.Multi.Arrivals, e.Multi.IntervalSeconds, e.Multi.LambdaPerHour); err != nil {
			return at("multi", err)
		}
	case e.Custom != nil:
		if err := e.Custom.validate(); err != nil {
			return at("custom", err)
		}
	}
	return nil
}

// maxJobs bounds a scenario's job count at the task bound of the service's
// direct jobs: compiling a stream or a live line allocates per job, and the
// service compiles a submitted spec before admitting it.
const maxJobs = 1024

// checkJobs refuses a job count above maxJobs before anything is built.
func checkJobs(n int) error {
	if n > maxJobs {
		return fmt.Errorf("jobs %d (want at most %d)", n, maxJobs)
	}
	return nil
}

// policies is the comparison a multi block runs, one line per policy: the
// listed ones, else FIFO against fair-share.
func (m *MultiExperiment) policies() []string {
	if len(m.Policies) == 0 {
		return []string{"fifo", "fair"}
	}
	return m.Policies
}

// interval is the stagger gap or Poisson mean the block's offsets are
// drawn with: IntervalSeconds, or the mean of LambdaPerHour.
func (m *MultiExperiment) interval() float64 {
	if m.LambdaPerHour > 0 {
		return 3600 / m.LambdaPerHour
	}
	return m.IntervalSeconds
}

// checkPolicies checks each listed policy name, with the weights on the
// weighted line, and that weights and priorities come with the policy that
// reads them. An empty list is the lowering's default comparison.
func (m *MultiExperiment) checkPolicies() error {
	for i, p := range m.Policies {
		var w map[string]float64
		if p == "weighted" {
			w = m.Weights
		}
		if _, err := sched.PolicyByName[*mapred.Job](p, w); err != nil {
			return at(fmt.Sprintf("policies[%d]", i), err)
		}
	}
	if len(m.Weights) > 0 && !slices.Contains(m.Policies, "weighted") {
		return fmt.Errorf("weights need the \"weighted\" policy in policies")
	}
	if len(m.Priorities) > 0 && !slices.Contains(m.Policies, "priority") {
		return fmt.Errorf("priorities need the \"priority\" policy in policies")
	}
	return nil
}

func (c *CustomExperiment) validate() error {
	if c.Title == "" {
		return fmt.Errorf("custom needs a title")
	}
	if err := c.Workload.validate(); err != nil {
		return at("workload", err)
	}
	if len(c.Variants) == 0 {
		return fmt.Errorf("custom %q has no variants", c.Title)
	}
	for i := range c.Variants {
		if err := c.Variants[i].validate(c.Workload.isStream()); err != nil {
			return at(fmt.Sprintf("variants[%d]", i), err)
		}
	}
	return nil
}

func (w *WorkloadSpec) validate() error {
	if !slices.Contains(Apps, w.App) {
		return fmt.Errorf("app %q (want sort or wordcount)", w.App)
	}
	if w.Jobs < 0 {
		return fmt.Errorf("jobs %d", w.Jobs)
	}
	if err := checkJobs(w.Jobs); err != nil {
		return err
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
	return nil
}

func (v *VariantSpec) validate(stream bool) error {
	if v.Label == "" {
		return fmt.Errorf("variant has no label")
	}
	if !slices.Contains(Presets, v.Preset) {
		return fmt.Errorf("preset %q (want %s)", v.Preset, joinOr(Presets))
	}
	if v.Policy != "" && !stream {
		return fmt.Errorf("policy %q needs a multi-job workload", v.Policy)
	}
	if _, err := v.policy(); err != nil {
		return err
	}
	if len(v.Priorities) > 0 && v.Policy != "priority" {
		return fmt.Errorf("priorities need policy \"priority\"")
	}
	if d := v.DFS; d != nil && d.Mode != nil && *d.Mode != "hadoop" && *d.Mode != "moon" {
		return fmt.Errorf("dfs mode %q (want hadoop or moon)", *d.Mode)
	}
	return nil
}

// validateArrivals checks what only the schema knows of an arrival
// process: its name, and that a Poisson process is spelled by exactly one of
// a mean interval or a rate per hour (positive) where a staggered one has no
// rate. A flag can carry a NaN here (JSON cannot), so NaN is refused too.
// The interval's range is checked where it becomes submission offsets
// (workload.MultiSpec, harness.LiveCell).
func validateArrivals(process string, interval, lambda float64) error {
	if math.IsNaN(interval) || math.IsNaN(lambda) {
		return fmt.Errorf("NaN arrival interval/lambda")
	}
	switch process {
	case "", "staggered":
		if lambda != 0 {
			return fmt.Errorf("lambda_per_hour needs poisson arrivals")
		}
	case "poisson":
		if !(interval > 0 && lambda == 0 || lambda > 0 && interval == 0) {
			return fmt.Errorf("poisson arrivals need exactly one of interval_seconds or lambda_per_hour > 0")
		}
	default:
		return fmt.Errorf("unknown arrival process %q (want staggered or poisson)", process)
	}
	return nil
}

// pathError is a rejection at a JSON path of the spec.
type pathError struct {
	path string
	err  error
}

func (e *pathError) Error() string { return e.path + ": " + e.err.Error() }

// at places err under path: at("experiments[0]", at("custom", err)) reads
// "experiments[0].custom: " followed by err.
func at(path string, err error) error {
	if pe, ok := err.(*pathError); ok {
		return &pathError{path + "." + pe.path, pe.err}
	}
	return &pathError{path, err}
}

// lineErr places the error of line n of the experiment's run under what the
// line was lowered from: a custom variant, or the multi block.
func (e *Experiment) lineErr(n int, err error) error {
	switch {
	case e.Custom != nil:
		return at(fmt.Sprintf("custom.variants[%d]", n), err)
	case e.Multi != nil:
		return at("multi", err)
	}
	return err
}

// joinOr renders a vocabulary list for error messages: "a, b or c".
func joinOr(names []string) string {
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}
