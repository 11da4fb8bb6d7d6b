// Command bench is the repo's benchmark runner. It measures the shipped
// binaries (moonbench, moonbenchd) from outside, as child processes, and
// prints one JSON result line; see README.md for what each number means.
//
//	bench --workload sim-sort --seed 3 --seconds 30 --trace 0
//	bench -repeat 10 -seed 1 -out a.json
//	bench -compare a.json b.json
//
// bench/run.sh builds the programs and this runner, then runs it from the
// root of the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// hardLimit is how long one run may take before the runner kills its
// children and gives up without a result (the driver allows 180 s).
const hardLimit = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is what a run leaves in bench/out/<workload>.result.json: the
// result line plus what -compare needs and the final line has no room for.
type detail struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        int                `json:"trace"`
	WallSeconds  float64            `json:"wall_seconds"`
	OutputSHA256 string             `json:"output_sha256,omitempty"`
	Counts       map[string]float64 `json:"counts,omitempty"`
	Problems     []string           `json:"problems,omitempty"`
	Result       result             `json:"result"`
}

// runner holds one run's settings and the children it has started.
type runner struct {
	procs   procTable
	binDir  string // where run.sh put the programs
	dir     string // the benchmark's own directory: workloads/ in, out/ out
	seed    uint64
	seconds float64
	trace   bool
	began   time.Time

	problems []string // why the run is not correct, for stderr and the detail file
}

func (r *runner) outPath(name string) string { return filepath.Join(r.dir, "out", name) }
func (r *runner) bin(name string) string     { return filepath.Join(r.binDir, name) }

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "bench: PROBLEM:", msg)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	began := time.Now()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (one of BENCHMARK.json's; empty with -repeat means all)")
		seed     = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 30, "how long to measure")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, instruments off; 1: per-layer metrics")
		repeat   = fs.Int("repeat", 0, "run bench/run.sh this many times per workload on seeds seed..seed+N-1 and print the spreads")
		out      = fs.String("out", "", "with -repeat: write every run to this JSON file")
		compare  = fs.Bool("compare", false, "compare two -repeat files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			logf("usage: bench -compare a.json b.json")
			return 2
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		logf("unexpected arguments: %v", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		logf("--trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		logf("--seconds must be at least 1")
		return 2
	}

	r := &runner{binDir: filepath.Join(".bench_build", "bin"), dir: "bench", seed: uint64(*seed), seconds: *seconds, trace: *trace == 1, began: began}

	// Every path out kills and reaps what was started: a signal, the hard
	// limit, an error, and (as a no-op) a normal return.
	abortOnSignal(&r.procs)
	defer r.procs.killAll()

	if *repeat > 0 {
		if err := r.repeatRuns(*workload, *repeat, *out, *trace); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}

	watchdog := time.AfterFunc(hardLimit, func() {
		logf("no result after %s: stopping children", hardLimit)
		r.procs.killAll()
		os.Exit(1)
	})
	defer watchdog.Stop()

	w, ok := workloadByName(*workload)
	if !ok {
		logf("unknown workload %q", *workload)
		return 2
	}
	if err := os.MkdirAll(r.outPath(""), 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	d, err := r.run(w.Name)
	if err != nil {
		// Not a measurement at all (a program is missing, a child could
		// not be started): no result line, non-zero exit.
		logf("%v", err)
		return 1
	}
	d.Workload, d.Seed, d.Seconds, d.Trace = w.Name, r.seed, r.seconds, *trace
	d.Problems = r.problems
	d.Result.Correct = d.Result.Correct && len(r.problems) == 0
	d.WallSeconds = time.Since(began).Seconds()
	if err := checkResult(&d.Result, r.trace); err != nil {
		logf("%v", err)
		return 1
	}
	if err := writeJSONFile(r.outPath(w.Name+".result.json"), d); err != nil {
		logf("%v", err)
		return 1
	}
	if d.OutputSHA256 != "" {
		logf("%s seed %d: output sha256 %s", w.Name, r.seed, d.OutputSHA256)
	}
	line, err := json.Marshal(d.Result)
	if err != nil {
		logf("%v", err)
		return 1
	}
	r.procs.killAll()
	fmt.Println(string(line))
	return 0
}

// abortOnSignal makes SIGINT and SIGTERM kill and reap every child before
// the runner exits, without a result.
func abortOnSignal(p *procTable) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		logf("%v: stopping children", s)
		p.killAll()
		os.Exit(130)
	}()
}

func (r *runner) run(workload string) (*detail, error) {
	for _, prog := range []string{"moonbench", "moonbenchd"} {
		if _, err := os.Stat(r.bin(prog)); err != nil {
			return nil, fmt.Errorf("program not built: %w", err)
		}
	}
	if workload == "svc-open" {
		return r.runService()
	}
	for _, s := range simWorkloads {
		if s.name == workload {
			return r.runSim(s)
		}
	}
	return nil, fmt.Errorf("workload %q has no runner", workload)
}

// newResult starts a result holding every metric of the run's kind at 0,
// so a metric the workload bypasses is still printed.
func newResult(trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{Unit: m.Unit}
	}
	return res
}

// set stores one metric; a name the catalog does not know is a bug.
func (res *result) set(name string, v float64) {
	m, ok := res.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalog for this kind of run")
	}
	m.Value = v
	res.Metrics[name] = m
}

// checkResult refuses to print a result the contract would reject: an
// end-to-end metric reading 0, or nothing attempted.
func checkResult(res *result, trace bool) error {
	if res.Attempted < 1 {
		return errors.New("nothing was attempted")
	}
	if trace {
		return nil
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.Name].Value; !(v > 0) {
			return fmt.Errorf("end-to-end metric %s reads %v", m.Name, v)
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
