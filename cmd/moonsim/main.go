// Command moonsim runs a single MapReduce job on the simulated
// opportunistic cluster and prints its execution profile.
//
// Usage:
//
//	moonsim -app sort -policy moon-hybrid -rate 0.5 -dedicated 6
//	moonsim -app wordcount -policy hadoop -expiry 60 -rate 0.3 -all-volatile
//	moonsim -scenario scenarios/correlated-sort.json -variant MOON-Hybrid -rate 0.5
//	moonsim -scenario scale-sweep -variant 528-nodes -cpuprofile cpu.out
//	moonsim -list-scenarios
//
// Every invocation runs one cell of a compiled scenario — the drill-down
// view of a line moonbench sweeps in aggregate. The shaping flags (-app,
// -policy, -expiry, -volatile, -dedicated, -all-volatile, -inter-d,
// -inter-v) abbreviate a one-variant custom spec; -scenario loads a spec
// and -variant picks its line (default: the first single-job line). Either
// way -rate, -seed and -scale become the spec's sweep axes, the spec is
// validated and compiled like any other, and the cell runs through the
// sweep's own runner: a flag run prints the bytes its scenario file does.
//
// -cpuprofile and -memprofile write pprof profiles of the run; a single
// cell of the scale-sweep scenario is the intended profiling subject for
// simulator speed work (see README "Performance").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "moonsim:", err)
		os.Exit(1)
	}
}

// cli is moonsim's parsed flag surface.
type cli struct {
	shape      scenario.SimFlags
	shaped     string // a shaping flag given explicitly, "" when none was
	rate       float64
	seed       uint64
	scale      int
	scenario   string
	variant    string
	list       bool
	metricsOut string
	metricsBkt float64
	cpuProf    string
	memProf    string
}

func parseFlags(args []string, stderr io.Writer) (*cli, error) {
	c := &cli{}
	fs := flag.NewFlagSet("moonsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.shape.App, "app", "sort", "sort|wordcount|sleep-sort|sleep-wordcount")
	fs.StringVar(&c.shape.Policy, "policy", "moon-hybrid", "hadoop|moon|moon-hybrid")
	fs.Float64Var(&c.shape.Expiry, "expiry", 600, "Hadoop TrackerExpiryInterval (seconds)")
	fs.Float64Var(&c.rate, "rate", 0.3, "machine-unavailability rate")
	fs.IntVar(&c.shape.Volatile, "volatile", 60, "volatile node count")
	fs.IntVar(&c.shape.Dedicated, "dedicated", 6, "dedicated node count")
	fs.BoolVar(&c.shape.AllVolatile, "all-volatile", false, "treat every machine as volatile (Hadoop baseline)")
	fs.Uint64Var(&c.seed, "seed", 1, "churn seed")
	fs.IntVar(&c.shape.InterD, "inter-d", 1, "intermediate dedicated replicas")
	fs.IntVar(&c.shape.InterV, "inter-v", 1, "intermediate volatile replicas")
	fs.IntVar(&c.scale, "scale", 1, "divide workload size by this factor")
	fs.StringVar(&c.scenario, "scenario", "", "run one cell of a scenario spec (path to a .json file, or a built-in name)")
	fs.StringVar(&c.variant, "variant", "", "with -scenario: the variant label to run (default: the first single-job line)")
	fs.BoolVar(&c.list, "list-scenarios", false, "print the built-in named scenarios and exit")
	fs.StringVar(&c.metricsOut, "metrics", "", "write this run's cross-layer metrics snapshot to this JSON file")
	fs.Float64Var(&c.metricsBkt, "metrics-bucket", metrics.DefaultBucket, "metrics series bucket width, seconds")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a heap profile taken after the run to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "app", "policy", "expiry", "volatile", "dedicated", "all-volatile", "inter-d", "inter-v":
			c.shaped = f.Name
		}
	})
	return c, nil
}

// spec returns the scenario the invocation names: the loaded -scenario, or
// the one-variant custom spec the shaping flags abbreviate.
func (c *cli) spec() (*scenario.Spec, error) {
	if c.scenario == "" {
		return scenario.FromSimFlags(c.shape), nil
	}
	// The spec owns the stack and workload shape: reject the shaping flags
	// instead of silently ignoring them.
	if c.shaped != "" {
		return nil, fmt.Errorf("-%s shapes the run and cannot be combined with -scenario (pick a cell with -variant/-rate/-seed/-scale)", c.shaped)
	}
	return scenario.Load(c.scenario)
}

func run(args []string, stdout, stderr io.Writer) error {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if c.list {
		return scenario.List(stdout)
	}
	spec, err := c.spec()
	if err != nil {
		return err
	}
	if spec.Execution == "live" {
		return fmt.Errorf("scenario %q runs the live engine; run it with moonbench -scenario", spec.Name)
	}

	// The cell is the spec with its sweep narrowed to one realization. The
	// axes are checked as given, before a zero can read as "the default".
	axes := harness.Config{Seeds: []uint64{c.seed}, Rates: []float64{c.rate}, Scale: c.scale}
	if err := axes.Validate(); err != nil {
		return err
	}
	cell := *spec
	cell.Sweep = scenario.SweepSpec{Seeds: axes.Seeds, Rates: axes.Rates, Scale: axes.Scale}
	cell.Metrics.BucketSeconds = c.metricsBkt
	plan, err := scenario.Compile(&cell)
	if err != nil {
		return err
	}
	label, sc, err := pickVariant(plan, spec.Name, c.variant)
	if err != nil {
		return err
	}

	cfg := plan.Config
	rate, seed := cfg.Rates[0], cfg.Seeds[0]
	var col *metrics.Collector
	if c.metricsOut != "" {
		col = metrics.New(cfg.MetricsBucket)
	}
	return harness.Profiled(c.cpuProf, c.memProf, func() error {
		opts, res, err := sc.Run(cfg.Scale, rate, seed, col)
		if err != nil {
			return err
		}
		job, d := res.Jobs[0], res.DFS
		p := job.Profile
		if col != nil {
			report := spec.NewReport("moonsim")
			report.Add("moonsim "+p.Job, label, rate, 1, col.Snapshot())
			f, err := os.Create(c.metricsOut)
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
		}
		capped := ""
		if job.HitHorizon {
			capped = " (hit simulation horizon)"
		}
		fmt.Fprintf(stdout, "job            %s (policy %s, rate %.2f, %dV+%dD, seed %d)\n",
			p.Job, label, rate, opts.Cluster.VolatileNodes, opts.Cluster.DedicatedNodes, seed)
		fmt.Fprintf(stdout, "state          %v%s\n", p.State, capped)
		fmt.Fprintf(stdout, "makespan       %.0f s\n", p.Makespan)
		fmt.Fprintf(stdout, "avg map        %.1f s\n", p.AvgMapTime)
		fmt.Fprintf(stdout, "avg shuffle    %.1f s\n", p.AvgShuffleTime)
		fmt.Fprintf(stdout, "avg reduce     %.1f s\n", p.AvgReduceTime)
		fmt.Fprintf(stdout, "killed maps    %d\n", p.KilledMaps)
		fmt.Fprintf(stdout, "killed reduces %d\n", p.KilledReduces)
		fmt.Fprintf(stdout, "duplicated     %d\n", p.DuplicatedTasks)
		fmt.Fprintf(stdout, "invalidations  %d\n", p.MapInvalidations)
		fmt.Fprintf(stdout, "dfs            declines=%d adaptiveRaises=%d hibernations=%d expirations=%d\n",
			d.DedicatedDeclines, d.AdaptiveRaises, d.Hibernations, d.Expirations)
		fmt.Fprintf(stdout, "replication    %d transfers, %.2f GB (thrash %d), trimmed %d\n",
			d.ReplicationsIssued, d.ReplicationBytes/1e9, d.ThrashReplications, d.TrimmedReplicas)
		fmt.Fprintf(stdout, "read stalls    %d, fetch failures %d\n", d.ReadStalls, d.FetchFailures)
		return nil
	})
}

// pickVariant selects one single-job line of the compiled scenario by
// label (or the first one). Job streams need the sweep harness: point the
// user at moonbench.
func pickVariant(plan *scenario.Plan, name, label string) (string, harness.SimCell, error) {
	fail := func(format string, args ...any) (string, harness.SimCell, error) {
		return "", harness.SimCell{}, fmt.Errorf(format, args...)
	}
	var labels []string
	for _, run := range plan.Runs {
		for _, v := range run.Variants {
			cell := v.Cell.(harness.SimCell) // a sim scenario compiles to simulated cells only
			if cell.Stream {
				if v.Label == label {
					return fail("variant %q of scenario %q is a multi-job line; run it with moonbench -scenario", label, name)
				}
				continue
			}
			if label == "" || v.Label == label {
				return v.Label, cell, nil
			}
			labels = append(labels, v.Label)
		}
	}
	if label == "" {
		return fail("scenario %q has no single-job variants; run it with moonbench -scenario", name)
	}
	return fail("scenario %q has no variant %q (have: %s)", name, label, strings.Join(labels, ", "))
}
