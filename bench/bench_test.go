package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"testing"
	"time"
)

// These tests run no workload: they check the contract between
// BENCHMARK.json and the runner, the arithmetic behind the metrics, and
// that an aborted run leaves no process behind.

// helperEnv makes the test binary play the runner in TestAbortLeavesNoChild.
const helperEnv = "BENCH_TEST_HELPER"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) != "" {
		abortHelper()
		return
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestManifestAgreesWithCatalog(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(man.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command = %q", got)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v", man.Paths)
	}
	if man.RunSeconds != 30 {
		t.Errorf("run_seconds = %d", man.RunSeconds)
	}

	if len(man.Workloads) != 4 || len(workloads) != 4 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalog, want 4", len(man.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the catalog %q (or their why differs)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}

	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the catalog %s [%s, %s]",
					kind, i, m.Name, m.Unit, m.Better, w.Name, w.Unit, w.Better)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("metric %s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	if len(endToEnd) != 3 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 3 and at most 128", len(endToEnd), len(perLayer))
	}
	for _, m := range man.EndToEnd {
		if m.Name == "setup_s" {
			for _, o := range man.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, *o.Bound)
				}
			}
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	for _, layer := range profiledLayers {
		if _, ok := newResult(true).Metrics[layer+".cpu_share"]; !ok {
			t.Errorf("profiled layer %s has no cpu_share metric", layer)
		}
	}
}

func TestSigmaMin(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		t    [][]float64
		want float64
		ok   bool
	}{
		{"fastest of each plan", [][]float64{{3, 1, 2}, {10, 30, 20}}, 11, true},
		{"a round that never ran a plan", [][]float64{{3, 1}, {10}}, 11, true},
		{"failed runs are skipped", [][]float64{{nan, 4, 0}, {7, -1}}, 11, true},
		{"a plan with no run at all", [][]float64{{3, 1}, {}}, 0, false},
		{"nothing", nil, 0, false},
	} {
		got, ok := sigmaMin(tc.t)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: sigmaMin = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
	// The largest plan's smallest run; a lone outlier round does not count.
	if got, ok := maxMin([][]float64{{13, 16, 13.5}, {14, 14.2}, {12}}); got != 14 || !ok {
		t.Errorf("maxMin = %v, %v; want 14, true", got, ok)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: selection must sort
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		p     float64
		value float64
	}{
		{5, 100, 5},          // too few for any percentile: the maximum
		{39, 100, 39},        // p75 would leave 9 beyond
		{40, 75, 30},         // p75 leaves exactly 10
		{100, 90, 90},        // p95 would leave 5
		{200, 95, 190},       // p99 would leave 2
		{1000, 99, 990},      // p99.9 would leave 1
		{10000, 99.9, 9990},  // p99.9 leaves 10
		{20000, 99.9, 19980}, // never above p99.9
	} {
		p, v := tailPercentile(seq(tc.n))
		if p != tc.p || v != tc.value {
			t.Errorf("n=%d: p%g = %g; want p%g = %g", tc.n, p, v, tc.p, tc.value)
		}
	}
	if got := percentile(seq(100), 99); got != 99 {
		t.Errorf("percentile(1..100, 99) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g; want 1, 4", q1, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g; want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "round", Start: 0, End: msec(100), Parent: -1},
		{Name: "plan-run", Start: msec(10), End: msec(50), Parent: 0},
		{Name: "plan-run", Start: msec(40), End: msec(70), Parent: 0},  // overlaps its sibling
		{Name: "wait", Start: msec(15), End: msec(45), Parent: 1},      // grandchild: not the round's
		{Name: "plan-run", Start: msec(90), End: msec(130), Parent: 0}, // runs past its parent
	}
	self := selfTimes(spans)
	want := []time.Duration{msec(30), msec(10), msec(30), msec(30), msec(40)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self time %v; want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	if got := selfSummary(spans); got != "plan-run 80 ms, round 30 ms, wait 30 ms" {
		t.Errorf("self time by name = %q", got)
	}

	tr := newTracer(time.Now(), 1, 2)
	a := tr.begin("a", -1, 0)
	b := tr.begin("b", a, 0)
	c := tr.begin("c", a, 0) // over capacity
	tr.end(c)
	tr.end(b)
	tr.end(a)
	if c != -1 || tr.dropped != 1 || len(tr.spans) != 2 || cap(tr.spans) != 2 {
		t.Errorf("a full tracer must drop, not grow: c=%d dropped=%d len=%d", c, tr.dropped, len(tr.spans))
	}
	var off *tracer
	off.end(off.begin("x", -1, 0)) // --trace 0: nil tracer records nothing

	path := filepath.Join(t.TempDir(), "t.json")
	if err := writeChromeTrace(path, tr, nil); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !bytes.Contains(data, []byte(`"name":"b","ph":"X"`)) || !bytes.Contains(data, []byte(`"parent":0,"op":0,"self_us":`)) {
		t.Errorf("trace file misses the span: %s", data)
	}
}

func TestStackLayer(t *testing.T) {
	for _, tc := range []struct {
		want  string
		stack []string
	}{
		{"netmodel", []string{"runtime.mapaccess2", "repro/internal/netmodel.(*Network).refresh", "repro/internal/sim.(*Simulation).Step", "main.main"}},
		{"sim", []string{"repro/internal/sim.(*calendar).push", "repro/internal/netmodel.(*Network).refresh"}},
		{"sim", []string{"runtime.memmove", "repro/internal/sim.sortBucket[...]", "repro/internal/dfs.(*FS).ReadBlock"}},
		{"mapred", []string{"repro/internal/mapred.(*JobTracker).heartbeat.func1", "repro/internal/sim.(*Simulation).Step"}},
		{layerGC, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{layerGC, []string{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.mallocgc", "repro/internal/dfs.(*FS).Write"}},
		{layerOther, []string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}},
		{layerOther, []string{"syscall.Syscall", "os.(*File).Write", "main.run"}},
		{layerOther, nil},
	} {
		if got := stackLayer(tc.stack); got != tc.want {
			t.Errorf("stackLayer(%v) = %q; want %q", tc.stack, got, tc.want)
		}
	}
}

// TestReadProfile decodes a real profile written by runtime/pprof, the
// format `moonbench -memprofile` writes.
func TestReadProfile(t *testing.T) {
	var keep [][]byte
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 1<<20))
	}
	path := filepath.Join(t.TempDir(), "mem.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // the profile is as of the last collection, as in moonbench
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_ = keep
	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIndex("alloc_space") < 0 || p.valueIndex("inuse_space") < 0 {
		t.Fatalf("sample types = %v", p.sampleTypes)
	}
	if got := p.total("alloc_space"); got < 48<<20 { // sampled, so approximate
		t.Errorf("alloc_space = %d, want about 64 MiB", got)
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			found = found || strings.Contains(fn, "TestReadProfile")
		}
	}
	if !found {
		t.Error("no stack names this test")
	}
	if _, err := parseProfile([]byte{0x0a, 0x7f}); err == nil {
		t.Error("a truncated profile must not parse")
	}
}

const sampleReport = `{"schema": "moon-metrics/v1", "experiments": [
 {"variant": "Hadoop-VO", "counters": [{"layer": "sim", "name": "events_fired", "value": 10}, {"layer": "net", "name": "flows_started", "value": 3}],
  "gauges": [{"layer": "mapred", "name": "makespan_seconds", "value": 2000}]},
 {"variant": "MOON-HybridD6", "counters": [{"layer": "sim", "name": "events_fired", "value": 5}, {"layer": "net", "name": "flows_started", "value": 4}],
  "gauges": [{"layer": "mapred", "name": "makespan_seconds", "value": 600}, {"layer": "mapred", "name": "queue_wait_seconds", "value": 9}]},
 {"variant": "MOON-HybridD3", "counters": [{"layer": "dfs", "name": "read_bytes", "value": 0.5}],
  "gauges": [{"layer": "mapred", "name": "makespan_seconds", "value": 700}]}]}`

func TestReportCounts(t *testing.T) {
	rep, err := parseReport([]byte(sampleReport))
	if err != nil {
		t.Fatal(err)
	}
	c := newCounts()
	c.add(rep)
	c.add(rep)
	for name, want := range map[string]float64{
		"sim.events_fired": 30, "netmodel.flows_started": 14, "dfs.read_bytes": 1, "net.flows_started": 0,
	} {
		if got := c.sum[name]; got != want {
			t.Errorf("%s = %v; want %v", name, got, want)
		}
	}
	if got := c.meanMakespan(); got != 650 {
		t.Errorf("mean MOON makespan = %v; want 650 (Hadoop-VO left out)", got)
	}
	if _, err := parseReport([]byte(`{"schema": "moon-metrics/v0"}`)); err == nil {
		t.Error("a report of another schema must be refused")
	}
	if d := diffCounts(map[string]float64{"a": 1, "b": 2}, map[string]float64{"a": 1, "b": 3, "c": 0}); fmt.Sprint(d) != "[b c]" {
		t.Errorf("diffCounts = %v", d)
	}
}

func TestParseTables(t *testing.T) {
	out := "Fig 7 (sort): MOON vs Hadoop-VO — execution time (s)\n" +
		"unavail  Hadoop-VO  MOON-HybridD3  MOON-HybridD6\n" +
		"0.3      >28800     541            487\n" +
		"0.5      2047       >821           757\n\n"
	cells, err := parseTables(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("%d cells; want 6", len(cells))
	}
	if c := cells[0]; c.row != "0.3" || c.column != "Hadoop-VO" || c.value != 28800 || !c.capped {
		t.Errorf("first cell = %+v", c)
	}
	if c := cells[4]; c.column != "MOON-HybridD3" || c.value != 821 || !c.capped {
		t.Errorf("capped MOON cell = %+v", c)
	}
	if _, err := parseTables("moonbench: nothing to see\n"); err == nil {
		t.Error("output without a table must be refused")
	}

	// The run-level check: a capped MOON cell and a MOON line slower than
	// Hadoop-VO are both failures.
	s := &simRun{runner: &runner{}, w: simWorkload{name: "t", plans: 1, fig7: true}, ref: [][]byte{[]byte(out)}}
	s.checkOutputs()
	if s.failed != 1 {
		t.Errorf("capped MOON cell: %d failures; want 1 (%v)", s.failed, s.problems)
	}
	slow := strings.ReplaceAll(strings.ReplaceAll(out, ">821", "821"), "757", "2100")
	s = &simRun{runner: &runner{}, w: simWorkload{name: "t", plans: 1, fig7: true}, ref: [][]byte{[]byte(slow)}}
	s.checkOutputs()
	if s.failed != 1 {
		t.Errorf("MOON slower than Hadoop-VO: %d failures; want 1 (%v)", s.failed, s.problems)
	}
}

func TestArrivalsAndSeeds(t *testing.T) {
	a, b, c := arrivals(7, 1000, 20*time.Second), arrivals(7, 1000, 20*time.Second), arrivals(8, 1000, 20*time.Second)
	same, other := true, false
	for i := range a {
		same = same && a[i] == b[i]
		other = other || a[i] != c[i]
		if i > 0 && a[i] < a[i-1] || a[i] < 0 || a[i] >= 20*time.Second {
			t.Fatalf("arrival %d = %v out of order or range", i, a[i])
		}
	}
	if !same || !other {
		t.Errorf("the schedule must be a function of the seed: same=%v other=%v", same, other)
	}
	if planSeed(0, 0) == 0 || planSeed(3, 4) != 3005 {
		t.Errorf("planSeed(0,0)=%d planSeed(3,4)=%d", planSeed(0, 0), planSeed(3, 4))
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"unchanged", base, []float64{101, 100, 100, 99, 102}, false, "ok"},
		{"worse beyond the bound", base, []float64{120, 121, 119, 122, 120}, false, "REGRESSION"},
		{"higher is better, fell", base, []float64{80, 81, 79, 80, 82}, true, "REGRESSION"},
		{"spread wider than the bound", []float64{100, 140, 80, 120, 60}, []float64{100, 110, 95, 90, 105}, false, "unresolved"},
		{"noisy, but every run better", []float64{100, 140, 80, 120, 60}, []float64{50, 40, 55, 45, 30}, false, "ok"},
	} {
		if got := judge(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: %s; want %s", tc.name, got, tc.want)
		}
	}
}

// abortHelper is the test binary playing the runner: it starts a child
// that forks a grandchild, reports both pids, and waits to be signalled.
func abortHelper() {
	var procs procTable
	abortOnSignal(&procs)
	cmd := exec.Command("sh", "-c", "sleep 300 & echo $$ $!; wait")
	cmd.Stdout = os.Stdout
	if _, err := procs.start(cmd); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(3)
	}
	select {}
}

// alive reports whether pid still names a process (signal 0 probe).
func alive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || errors.Is(err, syscall.EPERM)
}

// gone reports whether pid has ended (reaped, or a zombie awaiting it).
func gone(pid int) bool {
	if !alive(pid) {
		return true
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	i := bytes.LastIndexByte(data, ')')
	return i >= 0 && i+2 < len(data) && data[i+2] == 'Z'
}

func TestAbortLeavesNoChild(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), helperEnv+"=1")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var child, grandchild int
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if _, scanErr := fmt.Sscan(line, &child, &grandchild); err != nil || scanErr != nil {
			cmd.Process.Kill()
			t.Fatalf("helper printed %q: %v %v", line, err, scanErr)
		}
		if gone(child) || gone(grandchild) {
			t.Fatalf("child %d or grandchild %d ended before the abort", child, grandchild)
		}
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		err = cmd.Wait()
		if code := cmd.ProcessState.ExitCode(); code != 130 {
			t.Errorf("%v: runner exit code %d (%v); want 130", sig, code, err)
		}
		// killAll has returned by the time the runner exits, so the child
		// is reaped; the grandchild was killed with the group.
		deadline := time.Now().Add(5 * time.Second)
		for !(gone(child) && gone(grandchild)) {
			if time.Now().After(deadline) {
				syscall.Kill(grandchild, syscall.SIGKILL)
				t.Fatalf("%v: child %d gone=%v, grandchild %d gone=%v", sig, child, gone(child), grandchild, gone(grandchild))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// In a directory without the program, run.sh fails at its first go build.
// That go command must not start the toolchain's telemetry sidecar, a
// detached child that outlives the script: with the mode file written first
// the telemetry directory holds nothing else (the sidecar's parent would
// have left local/upload.token beside it).
func TestRunShStartsNoTelemetrySidecar(t *testing.T) {
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bench", "run.sh"), script, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", "sim-sort", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil || len(out) != 0 {
		t.Fatalf("run.sh without the program: err %v, stdout %q; want a failure and no result", err, out)
	}
	telemetry := filepath.Join(dir, ".bench_build", "config", "go", "telemetry")
	entries, err := os.ReadDir(telemetry)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "mode" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("%s holds %v; want only the mode file", telemetry, names)
	}
}

func TestProcTableTimeoutAndRefusal(t *testing.T) {
	var procs procTable
	c, err := procs.start(exec.Command("sleep", "300"))
	if err != nil {
		t.Fatal(err)
	}
	pid := c.cmd.Process.Pid
	if err := procs.waitTimeout(c, 50*time.Millisecond); err == nil || !strings.Contains(err.Error(), "killed after") {
		t.Errorf("waitTimeout = %v; want a kill", err)
	}
	if alive(pid) {
		t.Errorf("pid %d survived its timeout", pid)
	}
	quick, err := procs.start(exec.Command("true"))
	if err != nil {
		t.Fatal(err)
	}
	if err := procs.waitTimeout(quick, time.Minute); err != nil {
		t.Errorf("true: %v", err)
	}
	if rss, _ := quick.rusage(); rss <= 0 {
		t.Errorf("peak RSS of an ended child = %d kB", rss)
	}
	procs.killAll()
	if _, err := procs.start(exec.Command("true")); err != errAborting {
		t.Errorf("start after killAll = %v; want errAborting", err)
	}
}
