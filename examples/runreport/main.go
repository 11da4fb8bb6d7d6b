// Command runreport demonstrates the cross-layer metrics subsystem: it
// runs one sort job on the MOON-Hybrid stack with a metrics.Collector
// attached, then prints a compact run report — slot utilization over time,
// cluster availability, replication traffic and speculative outcomes —
// straight from the collector's snapshot.
//
// The same snapshot is what `moonbench -metrics out.json` aggregates
// across sweep cells and exports with a versioned schema.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	col := metrics.New(60) // 1-minute buckets: the scaled job is short

	opts := core.MOONPreset(core.ClusterSpec{
		VolatileNodes: 60, DedicatedNodes: 6,
		UnavailabilityRate: 0.3, Seed: 1,
	}, true)
	opts.Metrics = col

	w := workload.Single(workload.Scale(workload.Sort(2*66), 8))
	s, err := core.NewForWorkload(opts, w)
	if err != nil {
		fatal(err)
	}
	res, err := s.RunWorkload(w)
	if err != nil {
		fatal(err)
	}
	p := res.Jobs[0].Profile
	fmt.Printf("job %s finished in %.0f s (state %v)\n\n", p.Job, p.Makespan, p.State)

	snap := col.Snapshot()

	fmt.Println("slot occupancy over time (mapred/slot_occupancy):")
	for _, sd := range snap.Series {
		if sd.Layer != string(metrics.LayerMapred) || sd.Name != "slot_occupancy" {
			continue
		}
		for _, pt := range sd.Points {
			bar := int(pt.Value * 40)
			fmt.Printf("  t=%5.0fs %5.1f%% %s\n", pt.T, 100*pt.Value, bars(bar))
		}
	}

	fmt.Println("\ncounters:")
	for _, p := range snap.Counters {
		if p.Value == 0 {
			continue
		}
		fmt.Printf("  %-8s %-24s %.6g\n", p.Layer, p.Name, p.Value)
	}
}

func bars(n int) string {
	const full = "########################################"
	if n < 0 {
		n = 0
	}
	if n > len(full) {
		n = len(full)
	}
	return full[:n]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "runreport:", err)
	os.Exit(1)
}
