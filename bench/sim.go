package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// simWorkload is one simulator workload: a moon-scenario/v1 file run as
// `moonbench -scenario <file> -seeds <s> -parallel 1`, once per plan. Plans
// differ only in their churn seed.
type simWorkload struct {
	name string
	// plans is K, the distinct plans (seeds) a round covers: enough that
	// the work a --seed draws stays within 5 % from seed to seed.
	plans int
	// fig7 marks the MOON-vs-Hadoop-VO tables, which must keep the
	// paper's order: Hadoop-VO slower than MOON-HybridD6 on the mean.
	fig7 bool
}

var simWorkloads = []simWorkload{
	{name: "sim-sort", plans: 5, fig7: true},
	{name: "sim-wordcount", plans: 8, fig7: true},
	{name: "sim-fleet", plans: 5},
}

const (
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 3
	// planTimeout bounds one plan-run (they take 1-1.5 s; paper scale 5 s).
	planTimeout = 60 * time.Second
	// minRounds is completed however slow the host is: Σ min needs two
	// runs of every plan to discard anything.
	minRounds = 2
)

// planSeed is plan k's churn seed. The +1 keeps --seed 0 off seed 0, which
// the harness rejects.
func planSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) + 1 }

// planRun is one ended moonbench child.
type planRun struct {
	wall  time.Duration // spawn to exit
	cpu   time.Duration
	rssKB int64
	out   []byte
	err   error
}

// simRun is the state of one sim workload run.
type simRun struct {
	*runner
	w    simWorkload
	spec string
	tr   *tracer

	attempted, failed int
	ref               [][]byte // each plan's stdout the first time it ran
}

// planArgs is plan k's command line after the program name.
func (s *simRun) planArgs(k int, extra ...string) []string {
	args := []string{"-scenario", s.spec, "-seeds", strconv.FormatUint(planSeed(s.seed, k), 10), "-parallel", "1"}
	return append(args, extra...)
}

// childEnv is the environment of a program child. Simulator children get
// GOMAXPROCS=1, so the collector and the simulator do not fight the
// neighbours for the second vCPU; "" leaves the runtime its default.
func childEnv(gomaxprocs string) []string {
	env := []string{"PATH=" + os.Getenv("PATH"), "HOME=" + os.Getenv("HOME")}
	if gomaxprocs != "" {
		env = append(env, "GOMAXPROCS="+gomaxprocs)
	}
	return env
}

// exec runs one moonbench child to its end. parent is the enclosing span.
func (s *simRun) exec(parent, op int, env []string, args ...string) planRun {
	cmd := exec.Command(s.bin("moonbench"), args...)
	cmd.Env = env
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr

	sp := s.tr.begin("spawn", parent, op)
	c, err := s.procs.start(cmd)
	s.tr.end(sp)
	if err != nil {
		return planRun{err: err}
	}
	sp = s.tr.begin("wait", parent, op)
	err = s.procs.waitTimeout(c, planTimeout)
	s.tr.end(sp)
	if err != nil {
		err = fmt.Errorf("moonbench %s: %w: %s", strings.Join(args, " "), err, firstLine(stderr.String()))
	}
	rss, cpu := c.rusage()
	return planRun{wall: c.wall, cpu: cpu, rssKB: rss, out: stdout.Bytes(), err: err}
}

// plan runs plan k once and checks it: exit 0 and the same bytes as every
// other time this plan ran.
func (s *simRun) plan(parent, k int, env []string, extra ...string) planRun {
	sp := s.tr.begin("plan-run", parent, k)
	pr := s.exec(sp, k, env, s.planArgs(k, extra...)...)
	s.tr.end(sp)
	s.attempted++
	switch {
	case pr.err != nil:
		s.failed++
		s.problem("plan %d: %v", k, pr.err)
	case s.ref[k] == nil:
		s.ref[k] = pr.out
	case !bytes.Equal(s.ref[k], pr.out):
		pr.err = fmt.Errorf("plan %d: output differs from its first run", k)
		s.failed++
		s.problem("%v", pr.err)
	}
	return pr
}

// round runs every plan once and returns their runs in plan order.
func (s *simRun) round(name string, env []string, extra func(k int) []string) []planRun {
	sp := s.tr.begin(name, -1, -1)
	runs := make([]planRun, s.w.plans)
	for k := range runs {
		var x []string
		if extra != nil {
			x = extra(k)
		}
		runs[k] = s.plan(sp, k, env, x...)
	}
	s.tr.end(sp)
	return runs
}

// roundTotals sums a round's plan-runs: wall time and CPU time.
func roundTotals(runs []planRun) (wall, cpu time.Duration) {
	for _, pr := range runs {
		wall += pr.wall
		cpu += pr.cpu
	}
	return wall, cpu
}

func roundWall(runs []planRun) time.Duration {
	wall, _ := roundTotals(runs)
	return wall
}

// setup is what a user pays before the first result: the K invocations are
// written down, the spec is validated by the program itself, and plan 0
// runs once untimed so the binary and the spec are in the page cache.
func (s *simRun) setup() error {
	var plans strings.Builder
	for k := 0; k < s.w.plans; k++ {
		fmt.Fprintf(&plans, "GOMAXPROCS=1 %s %s\n", s.bin("moonbench"), strings.Join(s.planArgs(k), " "))
	}
	if err := os.WriteFile(s.outPath(s.w.name+".plans.txt"), []byte(plans.String()), 0o644); err != nil {
		return err
	}
	if pr := s.exec(-1, -1, childEnv("1"), "-scenario", s.spec, "-dump-scenario", "-"); pr.err != nil {
		return fmt.Errorf("spec does not validate: %w", pr.err)
	}
	if pr := s.exec(-1, -1, childEnv("1"), s.planArgs(0)...); pr.err != nil {
		return fmt.Errorf("warm-up: %w", pr.err)
	}
	return nil
}

func (r *runner) runSim(w simWorkload) (*detail, error) {
	s := &simRun{runner: r, w: w, spec: filepath.Join(r.dir, "workloads", w.name+".json"), ref: make([][]byte, w.plans)}
	if _, err := os.Stat(s.spec); err != nil {
		return nil, err
	}
	if r.trace {
		s.tr = newTracer(r.began, 1, 4096)
	}

	setups := make([]float64, setupRepeats)
	preamble := time.Since(r.began).Seconds()
	for i := range setups {
		t0 := time.Now()
		if err := s.setup(); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}

	// Timed rounds. In a traced run they get 40 % of the time; the rest
	// goes to the instrumented round and the layer drivers.
	budget := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		budget = budget * 2 / 5
	}
	measureStart := time.Now()
	var rounds [][]planRun
	for {
		if n := len(rounds); n >= minRounds {
			last := roundWall(rounds[n-1])
			if time.Since(measureStart)+last > budget {
				break
			}
		}
		rounds = append(rounds, s.round("round", childEnv("1"), nil))
	}

	// op_ms is Σ_k min_r and peak_rss_mb max_k min_r over the runs that
	// passed their checks.
	t, rss := make([][]float64, w.plans), make([][]float64, w.plans)
	var roundMS, roundCPUMS []float64
	for _, runs := range rounds {
		for k, pr := range runs {
			if pr.err == nil {
				t[k] = append(t[k], ms(pr.wall))
				rss[k] = append(rss[k], float64(pr.rssKB)/1024)
			}
		}
		wall, cpu := roundTotals(runs)
		roundMS = append(roundMS, ms(wall))
		roundCPUMS = append(roundCPUMS, ms(cpu))
	}
	opMS, ok := sigmaMin(t)
	peakMB, _ := maxMin(rss)
	if !ok {
		s.problem("a plan never completed: op_ms is undefined")
	}
	s.checkOutputs()

	d := &detail{OutputSHA256: s.outputHash()}
	res := newResult(r.trace)
	if !r.trace {
		res.set("setup_s", preamble+median(setups))
		res.set("op_ms", opMS)
		res.set("peak_rss_mb", peakMB)
	} else {
		res.set("op_p50_ms", median(roundMS))
		res.set("op_tail_ms", slices.Max(roundMS)) // too few rounds for a percentile: the slowest
		res.set("op_samples", float64(len(rounds)))
		res.set("host.noise_ratio", ratio(median(roundMS), opMS))
		res.set("runtime.cpu_ms_per_op", median(roundCPUMS))
		d.Counts = s.tracedRound(&res, rounds[0], opMS)
		s.layerExtras(&res, rounds[0])
		if err := writeChromeTrace(s.outPath(w.name+".trace.json"), s.tr); err != nil {
			return nil, err
		}
		if s.tr.dropped > 0 {
			logf("%d spans dropped: tracer capacity too small", s.tr.dropped)
		}
		logf("%s: span self time: %s", w.name, selfSummary(s.tr.spans))
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	if r.trace {
		res.set("fail_ratio", ratio(float64(s.failed), float64(s.attempted)))
	}
	res.Correct = s.failed == 0
	d.Result = res
	logf("%s: %d rounds of %d plans, rounds %.0f ms, Σmin %.0f ms, set-ups %.2f s",
		w.name, len(rounds), w.plans, roundMS, opMS, setups)
	return d, nil
}

// outputHash is the SHA-256 of every plan's stdout in plan order. It is
// printed, not pinned: a change to the model legitimately moves it, two
// runs of one commit on one seed must not.
func (s *simRun) outputHash() string {
	h := sha256.New()
	for _, out := range s.ref {
		h.Write(out)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkOutputs reads the tables the plans printed: no MOON cell may be
// capped at the horizon ('>'), and on the mean over plans Hadoop-VO must be
// slower than MOON-HybridD6 in every row.
func (s *simRun) checkOutputs() {
	sums := map[string]*[2]float64{} // row -> {Hadoop-VO, MOON-HybridD6} sums
	var rows []string
	for k, out := range s.ref {
		if out == nil {
			continue // already a problem: the plan never ran clean
		}
		cells, err := parseTables(string(out))
		if err != nil {
			s.failed++
			s.problem("plan %d: %v", k, err)
			continue
		}
		for _, c := range cells {
			if c.capped && !strings.HasPrefix(c.column, "Hadoop") {
				s.failed++
				s.problem("plan %d: cell %s/%s is capped at the horizon", k, c.row, c.column)
			}
			if !s.w.fig7 {
				continue
			}
			acc := sums[c.row]
			if acc == nil {
				acc = new([2]float64)
				sums[c.row] = acc
				rows = append(rows, c.row)
			}
			switch c.column {
			case "Hadoop-VO":
				acc[0] += c.value
			case "MOON-HybridD6":
				acc[1] += c.value
			}
		}
	}
	for _, row := range rows {
		if acc := sums[row]; !(acc[0] > acc[1] && acc[1] > 0) {
			s.failed++
			s.problem("rate %s: Hadoop-VO (%.0f) is not slower than MOON-HybridD6 (%.0f) on the mean", row, acc[0], acc[1])
		}
	}
}

// cell is one number of a rendered table.
type cell struct {
	row, column string
	value       float64
	capped      bool
}

// parseTables reads moonbench's rendered tables: a title line, a header
// line starting with "unavail", then one row per rate.
func parseTables(out string) ([]cell, error) {
	var cells []cell
	var header []string
	for _, line := range splitLines(out) {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
			header = nil
		case fields[0] == "unavail":
			header = fields
		case header != nil && len(fields) == len(header):
			for i := 1; i < len(fields); i++ {
				txt, capped := strings.CutPrefix(fields[i], ">")
				v, err := strconv.ParseFloat(txt, 64)
				if err != nil {
					return nil, fmt.Errorf("table cell %q: %w", fields[i], err)
				}
				cells = append(cells, cell{row: fields[0], column: header[i], value: v, capped: capped})
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("no table in the output")
	}
	return cells, nil
}

// tracedRound runs one round with the program's instruments on (-metrics,
// -cpuprofile, -memprofile), and fills the count and profile-share metrics.
// It returns the summed report counts.
func (s *simRun) tracedRound(res *result, plain []planRun, opMS float64) map[string]float64 {
	art := func(k int, suffix string) string {
		return s.outPath(fmt.Sprintf("%s.p%d.%s", s.w.name, k, suffix))
	}
	traced := s.round("round.traced", childEnv("1"), func(k int) []string {
		return []string{"-metrics", art(k, "metrics.json"), "-cpuprofile", art(k, "cpu.pprof"), "-memprofile", art(k, "mem.pprof")}
	})
	res.set("trace_overhead_ratio", ratio(ms(roundWall(traced)), ms(roundWall(plain))))

	cnt := newCounts()
	cpu := map[string]float64{}
	allocBytes := 0.0
	for k, pr := range traced {
		if pr.err != nil {
			continue
		}
		rep, err := readReport(art(k, "metrics.json"))
		if err != nil {
			s.failed++
			s.problem("plan %d: %v", k, err)
			continue
		}
		cnt.add(rep)
		if p, err := readProfile(art(k, "cpu.pprof")); err != nil {
			s.problem("plan %d: %v", k, err)
		} else {
			addCPUByLayer(cpu, p)
		}
		if p, err := readProfile(art(k, "mem.pprof")); err != nil {
			s.problem("plan %d: %v", k, err)
		} else {
			allocBytes += float64(p.total("alloc_space"))
		}
	}

	for _, name := range []string{
		"sim.events_fired", "sim.events_canceled", "sim.queue_compactions",
		"netmodel.flows_started", "netmodel.bytes_delivered", "netmodel.flow_stalls",
		"dfs.read_bytes", "dfs.write_bytes", "dfs.write_retries", "dfs.read_stalls", "dfs.replications_issued",
		"mapred.task_launches", "mapred.attempts_killed", "mapred.speculative_issued",
		"cluster.suspensions",
	} {
		res.set(name, cnt.sum[name])
	}
	res.set("sim.cancel_fire_ratio", ratio(cnt.sum["sim.events_canceled"], cnt.sum["sim.events_fired"]))
	res.set("sim.host_us_per_fired_event", ratio(opMS*1000, cnt.sum["sim.events_fired"]))
	res.set("mapred.speculative_waste_ratio", ratio(cnt.sum["mapred.speculative_wasted"], cnt.sum["mapred.speculative_issued"]))
	res.set("mapred.makespan_s", cnt.meanMakespan())
	res.set("runtime.alloc_mb_per_op", allocBytes/(1<<20))

	totalCPU := 0.0
	for _, layer := range append([]string{layerGC, layerOther}, profiledLayers...) {
		totalCPU += cpu[layer]
	}
	known := 0.0
	for _, layer := range profiledLayers {
		res.set(layer+".cpu_share", ratio(cpu[layer], totalCPU))
		known += cpu[layer]
	}
	res.set("runtime.gc_cpu_share", ratio(cpu[layerGC], totalCPU))
	// Whatever is neither a profiled layer nor the collector: runtime,
	// syscalls, cmd/ and any repro/internal package without a metric.
	res.set("other.cpu_share", ratio(totalCPU-known-cpu[layerGC], totalCPU))

	counts := cnt.sum
	counts["mapred.makespan_s"] = cnt.meanMakespan()
	return counts
}

// layerExtras runs what belongs to single layers and is too slow or too
// noisy to bound: paper scale, the sweep pool, and the layer drivers.
func (s *simRun) layerExtras(res *result, plain []planRun) {
	if s.w.fig7 {
		sp := s.tr.begin("paper-scale", -1, -1)
		pr := s.exec(sp, -1, childEnv("1"), s.planArgs(0, "-scale", "1")...)
		s.tr.end(sp)
		if pr.err != nil {
			s.problem("paper scale: %v", pr.err)
		} else {
			res.set("harness.paper_scale_ms", ms(pr.wall))
		}
	}

	// The same round with the sweep pool and the runtime free to use every
	// core. Outputs must still be byte-identical (plan checks it).
	pooled := s.round("round.parallel", childEnv(""), func(int) []string { return []string{"-parallel", "0"} })
	res.set("harness.sweep_speedup", ratio(ms(roundWall(plain)), ms(roundWall(pooled))))

	s.drivers("sim", res)
}

// drivers runs the layer-driver program for one group and stores its
// metrics. The drivers call repro/internal directly, so a refactor can
// break their build; that must cost the per-layer numbers they own (they
// then read 0) and nothing else.
func (r *runner) drivers(group string, res *result) {
	path := r.bin("bench-drivers")
	if _, err := os.Stat(path); err != nil {
		logf("layer drivers not built (%v): their metrics read 0", err)
		return
	}
	cmd := exec.Command(path, "-group", group)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	c, err := r.procs.start(cmd)
	if err != nil {
		logf("layer drivers: %v", err)
		return
	}
	if err := r.procs.waitTimeout(c, planTimeout); err != nil {
		logf("layer drivers: %v", err)
		return
	}
	var got map[string]float64
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		logf("layer drivers: %v", err)
		return
	}
	stored := 0
	for _, m := range perLayer {
		if v, ok := got[m.Name]; ok {
			res.set(m.Name, v)
			stored++
		}
	}
	if stored != len(got) {
		logf("layer drivers printed %d metrics the catalog does not know", len(got)-stored)
	}
}

func splitLines(s string) []string { return strings.Split(strings.TrimRight(s, "\n"), "\n") }

func firstLine(s string) string {
	line, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	return line
}
