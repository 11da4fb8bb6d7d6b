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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "moontrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("moontrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rate     = fs.Float64("rate", 0.4, "target machine-unavailability rate")
		nodes    = fs.Int("nodes", 60, "number of node traces to generate")
		duration = fs.Float64("duration", 8*3600, "trace length in seconds")
		seed     = fs.Uint64("seed", 1, "generator seed")
		out      = fs.String("out", "", "directory to write node-<i>.trace files (omit for stdout stats)")
		stats    = fs.Bool("stats", false, "print per-node statistics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1, got %d", *nodes)
	}

	traces, err := trace.GenerateFleet(rng.New(*seed), trace.DefaultOutageConfig(*rate), *duration, *nodes)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		for i := range traces {
			f, err := os.Create(filepath.Join(*out, fmt.Sprintf("node-%03d.trace", i)))
			if err != nil {
				return err
			}
			if _, err := traces[i].WriteTo(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "wrote %d traces to %s\n", len(traces), *out)
	}
	if *stats || *out == "" {
		sum, outages := 0.0, 0
		for i := range traces {
			f := traces[i].UnavailableFraction()
			sum += f
			outages += len(traces[i].Outages)
			if *stats {
				fmt.Fprintf(stdout, "node %3d: unavailable %.3f, %3d outages, mean outage %5.0fs\n",
					i, f, len(traces[i].Outages), traces[i].MeanOutage())
			}
		}
		fmt.Fprintf(stdout, "fleet: %d nodes, mean unavailability %.3f (target %.3f), %d outages total\n",
			len(traces), sum/float64(len(traces)), *rate, outages)
	}
	return nil
}
