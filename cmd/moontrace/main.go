// Command moontrace generates and inspects node-availability traces.
//
// Usage:
//
//	moontrace -rate 0.4 -nodes 60 -out traces/          # one file per node
//	moontrace -rate 0.5 -stats                          # print statistics
//
// The diurnal study of the paper's Figure 1 is `moonbench -experiment fig1`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	var (
		rate     = flag.Float64("rate", 0.4, "target machine-unavailability rate")
		nodes    = flag.Int("nodes", 60, "number of node traces to generate")
		duration = flag.Float64("duration", 8*3600, "trace length in seconds")
		seed     = flag.Uint64("seed", 1, "generator seed")
		out      = flag.String("out", "", "directory to write node-<i>.trace files (omit for stdout stats)")
		stats    = flag.Bool("stats", false, "print per-node statistics")
	)
	flag.Parse()

	traces, err := trace.GenerateFleet(rng.New(*seed), trace.DefaultOutageConfig(*rate), *duration, *nodes)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		for i := range traces {
			path := filepath.Join(*out, fmt.Sprintf("node-%03d.trace", i))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if _, err := traces[i].WriteTo(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wrote %d traces to %s\n", len(traces), *out)
	}
	if *stats || *out == "" {
		sum, outages := 0.0, 0
		for i := range traces {
			f := traces[i].UnavailableFraction()
			sum += f
			outages += len(traces[i].Outages)
			if *stats {
				fmt.Printf("node %3d: unavailable %.3f, %3d outages, mean outage %5.0fs\n",
					i, f, len(traces[i].Outages), traces[i].MeanOutage())
			}
		}
		fmt.Printf("fleet: %d nodes, mean unavailability %.3f (target %.3f), %d outages total\n",
			len(traces), sum/float64(len(traces)), *rate, outages)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "moontrace:", err)
	os.Exit(1)
}
