// Multijob: submit a staggered stream of jobs to one simulated MOON
// cluster and compare FIFO against fair-share slot arbitration — the
// multi-tenant scenario real opportunistic clusters serve.
//
//	go run ./examples/multijob
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/workload"
)

func main() {
	// Three quarter-scale sort jobs entering the cluster two minutes
	// apart, so each submission lands while its predecessor still runs.
	base := workload.Scale(workload.Sort(2*27), 4)
	stream := workload.Staggered(base, 3, 120)

	for _, policy := range []mapred.SchedPolicy{mapred.FIFO(), mapred.FairShare()} {
		cs := core.ClusterSpec{
			VolatileNodes:      24,
			DedicatedNodes:     3,
			UnavailabilityRate: 0.3,
			Seed:               2026,
		}
		opts := core.MOONPreset(cs, true /* hybrid-aware scheduling */)
		opts.Sched.JobPolicy = policy

		s, err := core.NewForWorkload(opts, stream)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.RunWorkload(stream)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("policy %-5s  completed %d/%d  span %.0fs  throughput %.1f jobs/h\n",
			policy.Name(), res.Completed, len(res.Jobs), res.Span, res.Throughput)
		for i, jr := range res.Jobs {
			marker := ""
			if jr.HitHorizon {
				marker = "  (hit horizon)"
			}
			fmt.Printf("  job %d %-10s makespan %6.0fs  dup=%d killedM=%d%s\n",
				i, jr.Profile.Job, jr.Profile.Makespan, jr.Profile.DuplicatedTasks,
				jr.Profile.KilledMaps, marker)
		}
		fmt.Println()
	}
}
