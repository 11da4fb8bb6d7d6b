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
// With -scenario, moonsim runs one cell of a compiled scenario: the
// variant selected by -variant (default: the first single-job line) at
// the -rate/-seed cell, scaled by -scale — the drill-down view of a line
// moonbench sweeps in aggregate.
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
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "moonsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("moonsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app        = fs.String("app", "sort", "sort|wordcount|sleep-sort|sleep-wordcount")
		policy     = fs.String("policy", "moon-hybrid", "hadoop|moon|moon-hybrid")
		expiry     = fs.Float64("expiry", 600, "Hadoop TrackerExpiryInterval (seconds)")
		rate       = fs.Float64("rate", 0.3, "machine-unavailability rate")
		volatiles  = fs.Int("volatile", 60, "volatile node count")
		dedicated  = fs.Int("dedicated", 6, "dedicated node count")
		allVol     = fs.Bool("all-volatile", false, "treat every machine as volatile (Hadoop baseline)")
		seed       = fs.Uint64("seed", 1, "churn seed")
		interD     = fs.Int("inter-d", 1, "intermediate dedicated replicas")
		interV     = fs.Int("inter-v", 1, "intermediate volatile replicas")
		scale      = fs.Int("scale", 1, "divide workload size by this factor")
		scenFlag   = fs.String("scenario", "", "run one cell of a scenario spec (path to a .json file, or a built-in name)")
		variant    = fs.String("variant", "", "with -scenario: the variant label to run (default: the first single-job line)")
		listScen   = fs.Bool("list-scenarios", false, "print the built-in named scenarios and exit")
		metricsOut = fs.String("metrics", "", "write this run's cross-layer metrics snapshot to this JSON file")
		metricsBkt = fs.Float64("metrics-bucket", metrics.DefaultBucket, "metrics series bucket width, seconds")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listScen {
		return scenario.List(stdout)
	}

	var (
		opts  core.Options
		m     workload.MultiSpec // the one job, as the stream of one
		label = *policy
		spec  *scenario.Spec
	)
	if *scenFlag != "" {
		// The spec owns the stack and workload shape: reject the legacy
		// shaping flags instead of silently ignoring them.
		var flagErr error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "app", "policy", "expiry", "volatile", "dedicated", "all-volatile", "inter-d", "inter-v":
				flagErr = fmt.Errorf("-%s shapes the run and cannot be combined with -scenario (pick a cell with -variant/-rate/-seed/-scale)", f.Name)
			}
		})
		if flagErr != nil {
			return flagErr
		}
		var err error
		spec, err = scenario.Load(*scenFlag)
		if err != nil {
			return err
		}
		var cell harness.SimCell
		if label, cell, err = pickVariant(spec, *variant); err != nil {
			return err
		}
		opts, m = cell.Build(core.ClusterSpec{UnavailabilityRate: *rate, Seed: *seed}), cell.Workload
	} else {
		cs := core.ClusterSpec{
			VolatileNodes:      *volatiles,
			DedicatedNodes:     *dedicated,
			UnavailabilityRate: *rate,
			TreatAllVolatile:   *allVol,
			Seed:               *seed,
		}
		switch *policy {
		case "hadoop":
			opts = core.HadoopPreset(cs, *expiry)
		case "moon":
			opts = core.MOONPreset(cs, false)
		case "moon-hybrid":
			opts = core.MOONPreset(cs, true)
		default:
			return fmt.Errorf("unknown policy %q", *policy)
		}

		slots := (*volatiles + *dedicated) * 2
		var w workload.Spec
		switch *app {
		case "sort":
			w = workload.Sort(slots)
		case "wordcount":
			w = workload.WordCount()
		case "sleep-sort":
			w = workload.SleepApp(workload.Sort(slots))
		case "sleep-wordcount":
			w = workload.SleepApp(workload.WordCount())
		default:
			return fmt.Errorf("unknown app %q", *app)
		}
		w.Job.IntermediateFactor = dfs.Factor{D: *interD, V: *interV}
		m = workload.Single(w)
	}
	m = workload.ScaleMulti(m, *scale)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	var col *metrics.Collector
	if *metricsOut != "" {
		col = metrics.New(*metricsBkt)
		opts.Metrics = col
	}
	s, err := core.NewForWorkload(opts, m)
	if err != nil {
		return err
	}
	res, err := s.RunWorkload(m)
	if err != nil {
		return err
	}
	job := res.Jobs[0]

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		runtime.GC() // settle retained heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if col != nil {
		report := metrics.NewExport("moonsim")
		if spec != nil {
			report.Scenario = spec.Name
			report.SpecHash = spec.Hash()
		}
		report.Add(fmt.Sprintf("moonsim %s", m.Jobs[0].Spec.Job.Name), label, *rate, 1, col.Snapshot())
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	p := job.Profile
	fmt.Fprintf(stdout, "job            %s (policy %s, rate %.2f, %dV+%dD, seed %d)\n",
		p.Job, label, *rate, opts.Cluster.VolatileNodes, opts.Cluster.DedicatedNodes, *seed)
	fmt.Fprintf(stdout, "state          %v%s\n", p.State, capped(job.HitHorizon))
	fmt.Fprintf(stdout, "makespan       %.0f s\n", p.Makespan)
	fmt.Fprintf(stdout, "avg map        %.1f s\n", p.AvgMapTime)
	fmt.Fprintf(stdout, "avg shuffle    %.1f s\n", p.AvgShuffleTime)
	fmt.Fprintf(stdout, "avg reduce     %.1f s\n", p.AvgReduceTime)
	fmt.Fprintf(stdout, "killed maps    %d\n", p.KilledMaps)
	fmt.Fprintf(stdout, "killed reduces %d\n", p.KilledReduces)
	fmt.Fprintf(stdout, "duplicated     %d\n", p.DuplicatedTasks)
	fmt.Fprintf(stdout, "invalidations  %d\n", p.MapInvalidations)
	fmt.Fprintf(stdout, "dfs            declines=%d adaptiveRaises=%d hibernations=%d expirations=%d\n",
		res.DFS.DedicatedDeclines, res.DFS.AdaptiveRaises, res.DFS.Hibernations, res.DFS.Expirations)
	fmt.Fprintf(stdout, "replication    %d transfers, %.2f GB (thrash %d), trimmed %d\n",
		res.DFS.ReplicationsIssued, res.DFS.ReplicationBytes/1e9, res.DFS.ThrashReplications, res.DFS.TrimmedReplicas)
	fmt.Fprintf(stdout, "read stalls    %d, fetch failures %d\n", res.DFS.ReadStalls, res.DFS.FetchFailures)
	return nil
}

// pickVariant compiles the scenario and selects one single-job line by
// label (or the first one). Job streams need the sweep harness: point the
// user at moonbench.
func pickVariant(spec *scenario.Spec, label string) (string, harness.SimCell, error) {
	fail := func(format string, args ...any) (string, harness.SimCell, error) {
		return "", harness.SimCell{}, fmt.Errorf(format, args...)
	}
	if spec.Execution == "live" {
		return fail("scenario %q runs the live engine; run it with moonbench -scenario", spec.Name)
	}
	plan, err := scenario.Compile(spec)
	if err != nil {
		return "", harness.SimCell{}, err
	}
	var labels []string
	for _, run := range plan.Runs {
		for _, v := range run.Variants {
			cell := v.Cell.(harness.SimCell) // a sim scenario compiles to simulated cells only
			if cell.Stream {
				if v.Label == label {
					return fail("variant %q of scenario %q is a multi-job line; run it with moonbench -scenario", label, spec.Name)
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
		return fail("scenario %q has no single-job variants; run it with moonbench -scenario", spec.Name)
	}
	return fail("scenario %q has no variant %q (have: %s)", spec.Name, label, strings.Join(labels, ", "))
}

func capped(hit bool) string {
	if hit {
		return " (hit simulation horizon)"
	}
	return ""
}
