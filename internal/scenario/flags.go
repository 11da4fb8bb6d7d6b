package scenario

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/mapred"
	"repro/internal/sched"
)

// SimFlags mirrors moonsim's shaping flags: one job on one stack.
type SimFlags struct {
	App         string  // sort|wordcount|sleep-sort|sleep-wordcount
	Policy      string  // hadoop|moon|moon-hybrid
	Expiry      float64 // Hadoop's TrackerExpiryInterval, seconds
	Volatile    int
	Dedicated   int
	AllVolatile bool
	InterD      int // intermediate replication {d,v}
	InterV      int
}

// FromSimFlags lowers moonsim's shaping flags to the custom spec they
// abbreviate: one experiment, one variant labeled by the policy. Nothing is
// checked here; Compile validates the spec like any other, so a bad flag
// value is refused in the validator's words.
func FromSimFlags(f SimFlags) *Spec {
	app, sleep := strings.CutPrefix(f.App, "sleep-")
	v := VariantSpec{
		Label:              f.Policy,
		Preset:             f.Policy,
		IntermediateFactor: &FactorSpec{D: f.InterD, V: f.InterV},
	}
	if f.Policy == "hadoop" {
		v.Sched = &SchedDelta{TrackerExpirySeconds: &f.Expiry}
	}
	return &Spec{
		Schema:      Schema,
		Name:        "moonsim-" + f.Policy + "-" + f.App,
		Description: "Assembled from moonsim flags.",
		Experiments: []Experiment{{Custom: &CustomExperiment{
			Title:    "moonsim " + f.App,
			Cluster:  &ClusterSpec{Volatile: &f.Volatile, Dedicated: &f.Dedicated, AllVolatile: f.AllVolatile},
			Workload: WorkloadSpec{App: app, Sleep: sleep},
			Variants: []VariantSpec{v},
		}}},
	}
}

// Flags mirrors the legacy moonbench flag surface. FromFlags lowers it to
// a Spec — the flag path and the scenario-file path share every line of
// experiment assembly, so the two are byte-identical by construction.
type Flags struct {
	Experiment    string // fig1|fig4|fig5|fig6|table2|fig7|multi|ablation|correlated|all
	App           string // sort|wordcount|both
	Seeds         []uint64
	Scale         int
	Rates         []float64
	Parallel      int
	Ablation      string // homestretch|speccap|hibernate|adaptive
	Policy        string // fifo|fair|weighted|both
	Jobs          int
	Stagger       float64 // staggered arrivals: gap seconds
	Arrivals      string  // staggered|poisson
	Lambda        float64 // poisson arrivals: jobs per hour
	ArrivalSeed   uint64
	MetricsBucket float64
	// ExplicitArrivals marks the arrival flags as explicitly set on the
	// command line. The live experiment defaults to submitting every job
	// together, so only an explicit request becomes a live arrival
	// process; the multi experiment ignores this (its arrivals always
	// apply).
	ExplicitArrivals bool
}

// FromFlags validates a flag set the way the legacy CLI did (a typo'd
// -policy fails loudly even when the multi experiment is not selected) and
// assembles the equivalent Spec, experiments in the historical run order:
// fig1 first, then per app the scheduling, replication, overall and
// multi-job sweeps.
func FromFlags(f Flags) (*Spec, error) {
	if !slices.Contains(Experiments, f.Experiment) {
		return nil, fmt.Errorf("unknown experiment %q (want %s)", f.Experiment, strings.Join(Experiments, "|"))
	}

	apps := Apps
	switch f.App {
	case "both":
	case "sort", "wordcount":
		apps = []string{f.App}
	default:
		return nil, fmt.Errorf("unknown app %q", f.App)
	}
	live := f.Experiment == "live"
	if live && f.App == "sort" {
		return nil, fmt.Errorf("-experiment live executes real word counts (-app wordcount)")
	}

	// Validate the policy and arrival flags up front, like the legacy CLI:
	// a typo must fail loudly even when the multi experiment is not
	// selected this run. "both" keeps the default fifo-vs-fair comparison.
	multi := MultiExperiment{Jobs: f.Jobs}
	if f.Policy != "both" {
		if _, err := sched.PolicyByName[*mapred.Job](f.Policy, nil); err != nil {
			return nil, err
		}
		multi.Policies = []string{f.Policy}
	}
	// The live experiment runs the goroutine engine: real word counts
	// under churn. Its jobs are submitted together unless arrival flags
	// were explicitly given, which stagger submissions in compressed
	// wall-clock time; the simulated stream's arrivals always apply.
	if !live || f.ExplicitArrivals {
		multi.Arrivals = f.Arrivals
		switch f.Arrivals {
		case "staggered":
			multi.IntervalSeconds = f.Stagger
		case "poisson":
			if f.Lambda <= 0 {
				return nil, fmt.Errorf("poisson arrivals need -lambda > 0 (got %v)", f.Lambda)
			}
			multi.IntervalSeconds = 3600 / f.Lambda
		default:
			return nil, fmt.Errorf("unknown arrival process %q (want staggered or poisson)", f.Arrivals)
		}
		// A live spec records the seed only with the process that draws.
		if !live || f.Arrivals == "poisson" {
			multi.ArrivalSeed = f.ArrivalSeed
		}
	}

	if f.Experiment == "ablation" && !slices.Contains(AblationNames, f.Ablation) {
		return nil, fmt.Errorf("unknown ablation %q (want %s)", f.Ablation, strings.Join(AblationNames, "|"))
	}

	name := "moonbench-" + f.Experiment
	if f.Experiment == "ablation" {
		name += "-" + f.Ablation
	}
	if f.App != "both" && !live {
		name += "-" + f.App
	}
	s := &Spec{
		Schema:      Schema,
		Name:        name,
		Description: "Assembled from moonbench flags.",
		Sweep: SweepSpec{
			Seeds:       f.Seeds,
			Rates:       f.Rates,
			Scale:       f.Scale,
			Parallelism: f.Parallel,
		},
		Metrics: MetricsSpec{BucketSeconds: f.MetricsBucket},
	}
	if live {
		s.Execution = "live"
		s.Experiments = []Experiment{{App: "wordcount", Multi: &multi}}
		return s, nil
	}

	run := func(name string) bool { return f.Experiment == name || f.Experiment == "all" }
	if run("fig1") {
		s.Experiments = append(s.Experiments, Experiment{Figure: "fig1"})
	}
	for _, app := range apps {
		switch {
		case f.Experiment == "all":
			s.Experiments = append(s.Experiments,
				Experiment{Figure: "fig4", App: app, Renders: []string{"times", "duplicates"}})
		case f.Experiment == "fig4", f.Experiment == "fig5":
			s.Experiments = append(s.Experiments, Experiment{Figure: f.Experiment, App: app})
		}
		switch {
		case f.Experiment == "all":
			s.Experiments = append(s.Experiments,
				Experiment{Figure: "fig6", App: app, Renders: []string{"times", "table2"}})
		case f.Experiment == "fig6", f.Experiment == "table2":
			s.Experiments = append(s.Experiments, Experiment{Figure: f.Experiment, App: app})
		}
		if run("fig7") {
			s.Experiments = append(s.Experiments, Experiment{Figure: "fig7", App: app})
		}
		if run("multi") {
			m := multi
			s.Experiments = append(s.Experiments, Experiment{App: app, Multi: &m})
		}
		if f.Experiment == "ablation" {
			s.Experiments = append(s.Experiments, Experiment{Ablation: f.Ablation, App: app})
		}
		if f.Experiment == "correlated" {
			s.Experiments = append(s.Experiments, Experiment{Correlated: true, App: app})
		}
	}
	return s, nil
}
