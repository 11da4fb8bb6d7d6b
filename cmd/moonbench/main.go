// Command moonbench regenerates the tables and figures of the MOON paper
// (HPDC 2010) on the simulated testbed, and runs arbitrary declarative
// scenarios (moon-scenario/v1 specs).
//
// Usage:
//
//	moonbench -experiment fig4 -app sort
//	moonbench -experiment all -scale 4 -seeds 1,2,3
//	moonbench -experiment multi -policy fair -jobs 4 -stagger 300
//	moonbench -experiment multi -arrivals poisson -lambda 30 -policy both
//	moonbench -experiment live -jobs 3 -policy both
//	moonbench -experiment fig4 -app sort -metrics out.json
//	moonbench -scenario scenarios/poisson-mix.json
//	moonbench -scenario scenarios/live-mix.json -metrics live.json
//	moonbench -scenario correlated-sort -scale 16 -seeds 1
//	moonbench -list             # valid flag values
//	moonbench -list-scenarios   # built-in named scenarios
//
// Every invocation — flag-driven or file-driven — is internally a
// scenario.Spec: flags assemble a spec, -scenario loads one, and both
// compile through the same path, so a flag run is byte-identical to the
// equivalent scenario file. With -scenario, the sweep-axis flags (-seeds,
// -rates, -scale, -parallel, -metrics-bucket) override the spec when set
// explicitly; the experiment-shaping flags (-experiment, -app, -policy,
// ...) are rejected. -metrics writes a schema-versioned cross-layer run
// report (JSON plus a .timeline.csv dump) stamped with the scenario name
// and spec hash. -cpuprofile and -memprofile write pprof profiles of the
// whole sweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "moonbench:", err)
		os.Exit(1)
	}
}

// run is the whole CLI: flags (or a scenario file) to spec, spec to plan,
// plan to output. Factored from main so tests can pin the flag path and
// the -scenario path byte-identical.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("moonbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", strings.Join(scenario.Experiments, "|"))
		app        = fs.String("app", "both", "sort|wordcount|both")
		seeds      = fs.String("seeds", "1", "comma-separated churn seeds to average over")
		scale      = fs.Int("scale", 1, "divide workload size by this factor (1 = paper scale)")
		rates      = fs.String("rates", "0.1,0.3,0.5", "comma-separated unavailability rates")
		ablation   = fs.String("ablation", "homestretch", strings.Join(scenario.AblationNames, "|"))
		parallel   = fs.Int("parallel", 0, "simulations to run concurrently (0 = all cores, 1 = serial)")
		policy     = fs.String("policy", "both", "multi-job slot arbitration: fifo|fair|weighted|priority|both")
		jobs       = fs.Int("jobs", 3, "multi-job experiment: jobs per run")
		stagger    = fs.Float64("stagger", 60, "multi-job staggered arrivals: seconds between submissions")
		arrivals   = fs.String("arrivals", "staggered", "multi-job arrival process: staggered|poisson")
		lambda     = fs.Float64("lambda", 30, "poisson arrivals: mean arrival rate, jobs per hour")
		arrSeed    = fs.Uint64("arrival-seed", 1, "poisson arrivals: offset draw seed")
		scenFlag   = fs.String("scenario", "", "run a scenario spec (path to a .json file, or a built-in name)")
		dumpScen   = fs.String("dump-scenario", "", "write the run's assembled scenario spec to this file ('-' for stdout) and exit without running")
		listScen   = fs.Bool("list-scenarios", false, "print the built-in named scenarios and exit")
		list       = fs.Bool("list", false, "print the valid experiments, apps, ablations, policies and arrival processes, then exit")
		metricsOut = fs.String("metrics", "", "write a cross-layer metrics report to this JSON file (plus a .timeline.csv next to it)")
		metricsBkt = fs.Float64("metrics-bucket", metrics.DefaultBucket, "metrics series bucket width, seconds")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
		verbose    = fs.Bool("v", false, "print one line per run")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if *list {
		return printLists(stdout)
	}
	if *listScen {
		return scenario.List(stdout)
	}

	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var spec *scenario.Spec
	if *scenFlag != "" {
		for _, name := range []string{
			"experiment", "app", "policy", "jobs", "stagger", "arrivals",
			"lambda", "arrival-seed", "ablation",
		} {
			if explicit[name] {
				return fmt.Errorf("-%s shapes the experiment and cannot be combined with -scenario (edit the spec instead)", name)
			}
		}
		var err error
		if spec, err = scenario.Load(*scenFlag); err != nil {
			return err
		}
		// Sweep-axis flags override the loaded spec when set explicitly,
		// so CI can smoke-run any scenario at a bounded scale.
		if explicit["seeds"] {
			if spec.Sweep.Seeds, err = parseSeeds(*seeds); err != nil {
				return err
			}
		}
		if explicit["rates"] {
			if spec.Sweep.Rates, err = parseRates(*rates); err != nil {
				return err
			}
		}
		if explicit["scale"] {
			spec.Sweep.Scale = *scale
		}
		if explicit["parallel"] {
			spec.Sweep.Parallelism = *parallel
		}
		if explicit["metrics-bucket"] {
			spec.Metrics.BucketSeconds = *metricsBkt
		}
	} else {
		if *experiment == "live" && explicit["ablation"] {
			// The simulator-only ablation selector must fail loudly
			// rather than be silently dropped, matching the scenario
			// path's validation. (Arrival flags DO apply to live now:
			// explicit ones become compressed wall-clock submission
			// offsets; without them live jobs are submitted together.)
			return fmt.Errorf("-ablation does not apply to -experiment live")
		}
		f := scenario.Flags{
			Experiment: *experiment,
			App:        *app,
			// Live arrivals are opt-in: only explicitly set flags reach
			// the spec (the defaults would otherwise silently stagger
			// every live run).
			ExplicitArrivals: explicit["stagger"] || explicit["arrivals"] ||
				explicit["lambda"] || explicit["arrival-seed"],
			Scale:         *scale,
			Parallel:      *parallel,
			Ablation:      *ablation,
			Policy:        *policy,
			Jobs:          *jobs,
			Stagger:       *stagger,
			Arrivals:      *arrivals,
			Lambda:        *lambda,
			ArrivalSeed:   *arrSeed,
			MetricsBucket: *metricsBkt,
		}
		var err error
		if f.Seeds, err = parseSeeds(*seeds); err != nil {
			return err
		}
		if f.Rates, err = parseRates(*rates); err != nil {
			return err
		}
		if spec, err = scenario.FromFlags(f); err != nil {
			return err
		}
	}

	if *dumpScen != "" {
		if err := spec.Validate(); err != nil {
			return err
		}
		if *dumpScen == "-" {
			return spec.WriteJSON(stdout)
		}
		f, err := os.Create(*dumpScen)
		if err != nil {
			return err
		}
		if err := spec.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	plan, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	if *verbose {
		plan.Config.Progress = func(line string) { fmt.Fprintln(stderr, line) }
	}

	var report *metrics.Export
	if *metricsOut != "" {
		report = spec.NewReport("moonbench")
	}
	err = harness.Profiled(*cpuProf, *memProf, func() error { return plan.Execute(stdout, report) })
	if err != nil {
		return err
	}
	if report != nil {
		if err := writeReport(report, *metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "moonbench: wrote %s and %s\n", *metricsOut, timelinePath(*metricsOut))
	}
	return nil
}

// printLists answers "what can I pass here": every enumerated flag value.
func printLists(w io.Writer) error {
	_, err := fmt.Fprintf(w, `moonbench flag values
  -experiment  %s
  -app         sort|wordcount|both
  -ablation    %s
  -policy      %s|both
  -arrivals    %s
`,
		strings.Join(scenario.Experiments, "|"),
		strings.Join(scenario.AblationNames, "|"),
		strings.Join(mapred.JobPolicyNames(), "|"),
		strings.Join(scenario.ArrivalProcesses, "|"))
	return err
}

// timelinePath derives the CSV dump's path from the JSON report path.
func timelinePath(jsonPath string) string {
	return strings.TrimSuffix(jsonPath, ".json") + ".timeline.csv"
}

func writeReport(report *metrics.Export, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	cf, err := os.Create(timelinePath(path))
	if err != nil {
		return err
	}
	if err := report.WriteTimelineCSV(cf); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}

func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 || v >= 1 {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
