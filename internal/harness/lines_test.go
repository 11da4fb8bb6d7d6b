package harness

import (
	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Hand-built lines for the runner's own tests. What the paper's figures
// are made of is internal/scenario's business; these copy three of Fig 4's
// lines and the multi kind's policy lines because the bit-exact goldens
// were captured on them (paper_test.go runs the lines scenario compiles).

// testbed is the paper's 60 volatile + 6 dedicated fleet.
func testbed(cs core.ClusterSpec) core.ClusterSpec {
	cs.VolatileNodes, cs.DedicatedNodes = 60, 6
	return cs
}

func sleepSort() workload.Spec { return workload.SleepApp(workload.Sort(2 * 66)) }

// schedLines are Hadoop1Min (on the MOON data layer), MOON and MOON-Hybrid,
// each running one sleep-sort job.
func schedLines() []Variant {
	line := func(label string, build func(core.ClusterSpec) core.Options) Variant {
		return Variant{Label: label, Cell: SimCell{Build: build, Workload: workload.Single(sleepSort())}}
	}
	return []Variant{
		line("Hadoop1Min", func(cs core.ClusterSpec) core.Options {
			opts := core.HadoopPreset(testbed(cs))
			opts.Sched.TrackerExpiry = 60
			opts.DFS = core.MOONPreset(cs, false).DFS
			return opts
		}),
		line("MOON", func(cs core.ClusterSpec) core.Options { return core.MOONPreset(testbed(cs), false) }),
		line("MOON-Hybrid", func(cs core.ClusterSpec) core.Options { return core.MOONPreset(testbed(cs), true) }),
	}
}

// streamLines are one MOON-Hybrid line per arbitration policy, each running
// the same stream of n sleep-sort jobs stagger seconds apart.
func streamLines(n int, stagger float64, policies ...sched.Policy[*mapred.Job]) []Variant {
	var vs []Variant
	for _, pol := range policies {
		vs = append(vs, Variant{Label: "MOON-" + pol.Name(), Cell: SimCell{
			Build: func(cs core.ClusterSpec) core.Options {
				opts := core.MOONPreset(testbed(cs), true)
				opts.Sched.JobPolicy = pol
				return opts
			},
			Workload: workload.Stream(sleepSort(), workload.Arrivals("staggered", n, stagger, 0), 0),
			Stream:   true,
		}})
	}
	return vs
}
