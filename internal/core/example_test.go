package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/workload"
)

// Run one sort job on a simulated opportunistic cluster with the full MOON
// stack and print its execution profile.
func ExampleSimulation_RunWorkload() {
	// 24 volatile PCs churning at a 0.4 unavailability rate (the paper's
	// production-trace average), anchored by 3 dedicated nodes.
	cs := core.ClusterSpec{
		VolatileNodes:      24,
		DedicatedNodes:     3,
		UnavailabilityRate: 0.4,
		Seed:               2026,
	}
	opts := core.MOONPreset(cs, true /* hybrid-aware scheduling */)

	// A quarter-scale sort workload (Table I divided by 4) keeps the run
	// instant; workload.Sort(slots) is the paper's full configuration.
	w := workload.Scale(workload.Sort(2*(cs.VolatileNodes+cs.DedicatedNodes)), 4)

	// A run takes a job stream; one job is the stream of one.
	stream := workload.Single(w)
	s, err := core.NewForWorkload(opts, stream)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.RunWorkload(stream)
	if err != nil {
		log.Fatal(err)
	}

	p := res.Jobs[0].Profile
	fmt.Printf("%-22s %v\n", "job", p.Job)
	fmt.Printf("%-22s %v\n", "state", p.State)
	fmt.Printf("%-22s %.0f s\n", "makespan", p.Makespan)
	fmt.Printf("%-22s %.1f s\n", "avg map time", p.AvgMapTime)
	fmt.Printf("%-22s %.1f s\n", "avg shuffle time", p.AvgShuffleTime)
	fmt.Printf("%-22s %.1f s\n", "avg reduce time", p.AvgReduceTime)
	fmt.Printf("%-22s %d\n", "duplicated tasks", p.DuplicatedTasks)
	fmt.Printf("%-22s %d\n", "killed maps", p.KilledMaps)
	fmt.Printf("%-22s %d hibernations, %d re-replications (%.2f GB)\n",
		"dfs churn handling", res.DFS.Hibernations, res.DFS.ReplicationsIssued,
		res.DFS.ReplicationBytes/1e9)
	// Output:
	// job                    sort
	// state                  succeeded
	// makespan               240 s
	// avg map time           23.5 s
	// avg shuffle time       84.0 s
	// avg reduce time        97.8 s
	// duplicated tasks       21
	// killed maps            9
	// dfs churn handling     3 hibernations, 0 re-replications (0.00 GB)
}
