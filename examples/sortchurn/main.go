// sortchurn compares scheduling and data policies side by side on the same
// churn: stock Hadoop (three TrackerExpiry settings), MOON, and MOON-Hybrid
// run the paper's sort workload at increasing machine-unavailability rates.
// This is a compact interactive version of Figures 4 and 7.
//
//	go run ./examples/sortchurn [-scale 4] [-rate 0.5]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/workload"
)

func main() {
	scale := flag.Int("scale", 4, "workload scale divisor (1 = paper size)")
	flag.Parse()

	type variant struct {
		name  string
		build func(cs core.ClusterSpec) core.Options
	}
	variants := []variant{
		{"Hadoop-10min", func(cs core.ClusterSpec) core.Options {
			o := core.HadoopPreset(cs, 600)
			o.DFS = dfs.DefaultConfig(dfs.ModeMOON)
			return o
		}},
		{"Hadoop-1min", func(cs core.ClusterSpec) core.Options {
			o := core.HadoopPreset(cs, 60)
			o.DFS = dfs.DefaultConfig(dfs.ModeMOON)
			return o
		}},
		{"MOON", func(cs core.ClusterSpec) core.Options { return core.MOONPreset(cs, false) }},
		{"MOON-Hybrid", func(cs core.ClusterSpec) core.Options { return core.MOONPreset(cs, true) }},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "unavail\tpolicy\tmakespan(s)\tduplicates\tkilled maps")
	for _, rate := range []float64{0.1, 0.3, 0.5} {
		for _, v := range variants {
			cs := core.ClusterSpec{
				VolatileNodes:      30,
				DedicatedNodes:     3,
				UnavailabilityRate: rate,
				Seed:               7,
			}
			w := workload.Single(workload.Scale(workload.SleepApp(workload.Sort(2*33)), *scale))
			s, err := core.NewForWorkload(v.build(cs), w)
			if err != nil {
				log.Fatal(err)
			}
			res, err := s.RunWorkload(w)
			if err != nil {
				log.Fatal(err)
			}
			p := res.Jobs[0].Profile
			fmt.Fprintf(tw, "%.1f\t%s\t%.0f\t%d\t%d\n",
				rate, v.name, p.Makespan, p.DuplicatedTasks, p.KilledMaps)
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
