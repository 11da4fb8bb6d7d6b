package scenario

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/metrics"
)

// Builtins returns the named scenario registry, in listing order. Each
// call constructs fresh specs, so callers may mutate (e.g. apply flag
// overrides) freely. The shipped scenarios/ directory holds the canonical
// JSON export of every builtin (scripts/genscenarios regenerates it, and
// the golden tests pin file == builtin).
func Builtins() []*Spec {
	return []*Spec{
		paperFigures(),
		poissonMix(),
		correlatedSort(),
		weightedSkew(),
		expirySweep(),
		scaleSweep(),
		scale100k(),
		liveMix(),
		chaosLive(),
	}
}

// Lookup resolves a builtin scenario by name.
func Lookup(name string) (*Spec, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Load resolves a -scenario argument: a path to a spec file if one exists
// there, otherwise a builtin name.
func Load(arg string) (*Spec, error) {
	if f, err := os.Open(arg); err == nil {
		defer f.Close()
		s, err := Parse(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arg, err)
		}
		return s, nil
	}
	if s, ok := Lookup(arg); ok {
		return s, nil
	}
	return nil, fmt.Errorf("unknown scenario %q: no such file, and not a built-in (-list-scenarios prints the built-ins)", arg)
}

// List prints the builtin registry, one line per scenario.
func List(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\thash\tdescription")
	for _, s := range Builtins() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", s.Name, s.Hash(), s.Description)
	}
	return tw.Flush()
}

// floatp/strp/intp build the pointer fields of sparse specs.
func floatp(v float64) *float64 { return &v }
func strp(v string) *string     { return &v }
func intp(v int) *int           { return &v }

// paperFigures reproduces the full `-experiment all` evaluation: every
// figure and table of the paper on both Table I applications.
func paperFigures() *Spec {
	s, err := FromFlags(Flags{
		Experiment: "all", App: "both", Policy: "both",
		Jobs: 3, Stagger: 60, Arrivals: "staggered", ArrivalSeed: 1,
		MetricsBucket: metrics.DefaultBucket,
	})
	if err != nil {
		panic(err) // static flags; cannot fail
	}
	s.Name = "paper-figures"
	s.Description = "Every figure and table of the paper's evaluation (Figs 1/4/5/6/7, Table II, multi-job) on both apps."
	return s
}

// poissonMix is the multi-tenant job stream a shared opportunistic cluster
// actually sees: a bursty Poisson arrival process, compared across all
// three arbitration policies.
func poissonMix() *Spec {
	return &Spec{
		Schema:      Schema,
		Name:        "poisson-mix",
		Description: "Multi-tenant mix: 5 sleep-sort jobs arriving Poisson (20/h) under fifo vs fair vs weighted arbitration.",
		Metrics:     MetricsSpec{BucketSeconds: metrics.DefaultBucket},
		Experiments: []Experiment{{
			App: "sort",
			Multi: &MultiExperiment{
				Jobs:          5,
				Arrivals:      "poisson",
				LambdaPerHour: 20,
				ArrivalSeed:   1,
				Policies:      []string{"fifo", "fair", "weighted"},
				Weights:       map[string]float64{"sleep-sort-j2": 3},
			},
		}},
	}
}

// correlatedSort runs the real sort application (full data movement, not
// the sleep proxy) under lab-session churn: whole 10-node groups leave
// together on top of the swept independent churn.
func correlatedSort() *Spec {
	corr := &ClusterSpec{Correlated: &CorrelatedSpec{}}
	return &Spec{
		Schema:      Schema,
		Name:        "correlated-sort",
		Description: "Real sort (full I/O) under correlated lab-session outages: Hadoop-1min vs MOON vs MOON-Hybrid.",
		Experiments: []Experiment{{
			Custom: &CustomExperiment{
				Title:    "Correlated lab sessions, real sort",
				Cluster:  corr,
				Workload: WorkloadSpec{App: "sort"},
				Variants: []VariantSpec{
					{
						Label:  "Hadoop1Min",
						Preset: "hadoop",
						Sched:  &SchedDelta{TrackerExpirySeconds: floatp(60)},
						DFS:    &DFSDelta{Mode: strp("moon")},
					},
					{Label: "MOON", Preset: "moon"},
					{Label: "MOON-Hybrid", Preset: "moon-hybrid"},
				},
			},
		}},
	}
}

// weightedSkew demonstrates weighted shares: three identical staggered
// jobs where the first holds a 3x weight, against plain fair-share.
func weightedSkew() *Spec {
	return &Spec{
		Schema:      Schema,
		Name:        "weighted-skew",
		Description: "Weighted-fair skew: 3 staggered sleep-sort jobs, job 0 at weight 3, vs plain fair-share.",
		Experiments: []Experiment{{
			Custom: &CustomExperiment{
				Title: "Weighted shares (sleep-sort x3, 60s stagger)",
				Workload: WorkloadSpec{
					App: "sort", Sleep: true,
					Jobs: 3, Arrivals: "staggered", IntervalSeconds: 60,
				},
				Variants: []VariantSpec{
					{Label: "fair", Preset: "moon-hybrid", Policy: "fair"},
					{
						Label:   "weighted-j0x3",
						Preset:  "moon-hybrid",
						Policy:  "weighted",
						Weights: map[string]float64{"sleep-sort-j0": 3},
					},
				},
			},
		}},
	}
}

// scaleSweep is the raw-speed axis: one sleep-sort job on fleets doubling
// from the paper testbed (60V+6D) to 8x (480V+48D), all under MOON-Hybrid.
// Scheduling behavior is size-invariant here by design, so the sweep
// isolates simulator cost: event-queue pressure and netmodel settling grow
// with the fleet while the workload stays fixed. CI smokes the largest line
// at -scale; the profiles behind BENCH_*.json come from running it whole.
func scaleSweep() *Spec {
	mk := func(label string, volatile, dedicated int) VariantSpec {
		return VariantSpec{
			Label:   label,
			Preset:  "moon-hybrid",
			Cluster: &ClusterSpec{Volatile: intp(volatile), Dedicated: intp(dedicated)},
		}
	}
	return &Spec{
		Schema:      Schema,
		Name:        "scale-sweep",
		Description: "Fleet-size axis for raw simulator speed: sleep-sort on 66 to 528 nodes (1x-8x the paper testbed), MOON-Hybrid.",
		Sweep:       SweepSpec{Seeds: []uint64{1}, Rates: []float64{0.3}},
		Experiments: []Experiment{{
			Custom: &CustomExperiment{
				Title:    "Fleet-size sweep (sleep-sort, MOON-Hybrid)",
				Workload: WorkloadSpec{App: "sort", Sleep: true},
				Variants: []VariantSpec{
					mk("66-nodes", 60, 6),
					mk("132-nodes", 120, 12),
					mk("264-nodes", 240, 24),
					mk("528-nodes", 480, 48),
				},
			},
		}},
	}
}

// scale100k is the scale showcase: ONE simulation spanning a 100,000-node
// fleet through 24 hours of churn (≈2 million outages), with an hourly
// stream of sleep-sort jobs keeping the scheduler under load the whole
// day. Parallelism stays at 1: this is a single big run on one goroutine,
// and the one that holds ~100k pending events.
func scale100k() *Spec {
	return &Spec{
		Schema:      Schema,
		Name:        "scale-100k",
		Description: "One big run: 100k-node fleet, 24h of churn, hourly sleep-sort stream, MOON-Hybrid.",
		Sweep: SweepSpec{
			Seeds:       []uint64{1},
			Rates:       []float64{0.1},
			Parallelism: 1,
		},
		Experiments: []Experiment{{
			Custom: &CustomExperiment{
				Title: "100k nodes x 24h (sleep-sort hourly, MOON-Hybrid)",
				Cluster: &ClusterSpec{
					Volatile:       intp(99000),
					Dedicated:      intp(1000),
					HorizonSeconds: 24 * 3600,
				},
				Workload: WorkloadSpec{
					App: "sort", Sleep: true,
					// The paper's 66-node testbed shape (118 reduces),
					// pinned so the fleet scales while the workload
					// doesn't — unpinned, sort's fleet-derived fan-out
					// would make every job a 180k-reduce monster.
					ReduceSlots: intp(132),
					Jobs:        24, Arrivals: "staggered", IntervalSeconds: 3600,
				},
				Variants: []VariantSpec{
					{Label: "100k-nodes", Preset: "moon-hybrid"},
				},
			},
		}},
	}
}

// liveMix runs the goroutine engine for real: three concurrent word-count
// jobs on a churning 4+1 worker pool, compared across fifo, fair and
// strict-priority arbitration (job 2 promoted), with per-job profiles and
// engine metrics — the live counterpart of poisson-mix.
func liveMix() *Spec {
	return &Spec{
		Schema:      Schema,
		Name:        "live-mix",
		Description: "Live engine: 3 real word counts arriving staggered under trace-compressed churn, fifo vs fair vs priority (job 2 promoted).",
		Execution:   "live",
		Live: &LiveSpec{
			VolatileWorkers:  4,
			DedicatedWorkers: 1,
			HorizonSeconds:   120,
			CompressionMS:    1,
			SplitsPerJob:     8,
			WordsPerSplit:    400,
			ReducesPerJob:    3,
		},
		Metrics: MetricsSpec{BucketSeconds: 1},
		Experiments: []Experiment{{
			App: "wordcount",
			Multi: &MultiExperiment{
				Jobs: 3,
				// 10 simulated seconds between submissions — 10 ms of
				// wall clock at the 1 ms compression, so later jobs
				// genuinely arrive while earlier ones run.
				Arrivals:        "staggered",
				IntervalSeconds: 10,
				Policies:        []string{"fifo", "fair", "priority"},
				Priorities:      map[string]int{"live-j2": 5},
			},
		}},
	}
}

// chaosLive is live-mix on a hostile fabric: the same concurrent word
// counts, but every master↔worker message rides the fault-injecting
// transport — seeded drops, duplicates, delays, rare connection resets and
// a timed partition cutting worker 1 — with sessions that expire on
// silence. Results must still be exact; the transport metrics show the
// retry/lease/session machinery earning its keep.
func chaosLive() *Spec {
	return &Spec{
		Schema:      Schema,
		Name:        "chaos-live",
		Description: "Live engine under injected faults: drops, dups, delays, resets and a partition window; exact results required.",
		Execution:   "live",
		Live: &LiveSpec{
			VolatileWorkers:  4,
			DedicatedWorkers: 2,
			HorizonSeconds:   120,
			CompressionMS:    1,
			SplitsPerJob:     6,
			WordsPerSplit:    200,
			ReducesPerJob:    2,
			Link: &LinkSpec{
				SessionExpiryMS: 150,
			},
			Faults: &FaultSpec{
				Seed:      42,
				DropRate:  0.03,
				DupRate:   0.03,
				DelayRate: 0.03,
				DelayMS:   1,
				ResetRate: 0.002,
				Partitions: []PartitionSpec{
					{StartMS: 100, DurationMS: 80, Workers: []int{1}},
				},
			},
		},
		Metrics: MetricsSpec{BucketSeconds: 1},
		Experiments: []Experiment{{
			App: "wordcount",
			Multi: &MultiExperiment{
				Jobs: 3,
				// Seeded Poisson arrivals (mean 10 simulated seconds)
				// land submissions inside the fault windows.
				Arrivals:        "poisson",
				IntervalSeconds: 10,
				ArrivalSeed:     7,
				Policies:        []string{"fair"},
			},
		}},
	}
}

// expirySweep sweeps Hadoop's TrackerExpiryInterval beyond the paper's
// three points — a pure stack-delta scenario the flag surface cannot
// express.
func expirySweep() *Spec {
	mk := func(label string, expiry float64) VariantSpec {
		return VariantSpec{
			Label:  label,
			Preset: "hadoop",
			Sched:  &SchedDelta{TrackerExpirySeconds: floatp(expiry)},
			DFS:    &DFSDelta{Mode: strp("moon")}, // shared data layer, like Fig 4
		}
	}
	return &Spec{
		Schema:      Schema,
		Name:        "hadoop-expiry-sweep",
		Description: "Hadoop TrackerExpiryInterval swept 30s-20min on sleep-sort (extends Fig 4's three points).",
		Experiments: []Experiment{{
			Custom: &CustomExperiment{
				Title:    "Hadoop tracker-expiry sweep (sleep-sort)",
				Workload: WorkloadSpec{App: "sort", Sleep: true},
				Variants: []VariantSpec{
					mk("Hadoop30s", 30),
					mk("Hadoop1Min", 60),
					mk("Hadoop5Min", 300),
					mk("Hadoop10Min", 600),
					mk("Hadoop20Min", 1200),
				},
			},
		}},
	}
}
