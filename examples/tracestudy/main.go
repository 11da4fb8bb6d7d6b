// tracestudy reproduces the availability analysis that motivates MOON's
// design (Sections I and III): it generates the paper's synthetic
// availability traces, renders a Figure 1-style diurnal unavailability
// profile, and tabulates the replication-degree arithmetic — how many
// volatile replicas 99.99% availability costs with and without a dedicated
// copy.
//
//	go run ./examples/tracestudy
package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"

	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	// Part 1: Figure 1-style diurnal study.
	fmt.Println("== Diurnal unavailability (cf. paper Figure 1) ==")
	days := trace.GenerateFig1(rng.New(1))
	sum, n := 0.0, 0
	for _, d := range days {
		lo, hi := 1.0, 0.0
		for _, v := range d.Series {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			sum += v
			n++
		}
		fmt.Printf("DAY%d: %2.0f%%..%2.0f%% unavailable\n", d.Day, lo*100, hi*100)
	}
	fmt.Printf("average unavailability %.2f (paper reports ~0.4)\n\n", sum/float64(n))

	// Part 2: trace generator fidelity at the paper's sweep rates.
	fmt.Println("== Synthetic 8-hour traces (mean outage 409 s) ==")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "target rate\tmeasured\tmean outage(s)\toutages/node")
	for _, rate := range []float64{0.1, 0.3, 0.4, 0.5} {
		traces, err := trace.GenerateFleet(rng.New(2), trace.DefaultOutageConfig(rate), 8*3600, 60)
		if err != nil {
			panic(err)
		}
		frac, mean, count := 0.0, 0.0, 0
		for i := range traces {
			frac += traces[i].UnavailableFraction()
			mean += traces[i].MeanOutage()
			count += len(traces[i].Outages)
		}
		fmt.Fprintf(tw, "%.1f\t%.3f\t%.0f\t%.1f\n",
			rate, frac/60, mean/60, float64(count)/60)
	}
	tw.Flush()
	fmt.Println()

	// Part 3: the replication-cost argument for the hybrid architecture
	// (Section III): volatile copies needed for 99.99% availability.
	fmt.Println("== Replicas for 99.99% availability (cf. Section I/III) ==")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node unavail p\tvolatile-only copies\twith 1 dedicated copy (p_d=0.001)")
	for _, p := range []float64{0.1, 0.3, 0.4, 0.5} {
		const target = 0.9999
		vOnly := int(math.Ceil(math.Log(1-target) / math.Log(p)))
		// With a dedicated copy: 1 - p_d * p^v >= target.
		const pd = 0.001
		vHybrid := int(math.Ceil(math.Log((1-target)/pd) / math.Log(p)))
		if vHybrid < 0 {
			vHybrid = 0
		}
		fmt.Fprintf(tw, "%.1f\t%d\t%d\n", p, vOnly, vHybrid)
	}
	tw.Flush()
	fmt.Println("\nAt p=0.4 volatile-only needs 11 copies; one dedicated copy plus 3")
	fmt.Println("volatile copies achieves the same availability — the paper's case")
	fmt.Println("for the hybrid architecture.")
}
