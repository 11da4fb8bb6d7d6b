package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"
)

// campaign is the file -repeat writes and -compare reads: every run's
// detail, in the order run.
type campaign struct {
	Runs []detail `json:"runs"`
}

// manifest is the part of BENCHMARK.json -repeat and -compare read.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// metrics lists the end-to-end metrics, then the per-layer ones.
func (m *manifest) metrics() []manifestMetric {
	return append(slices.Clone(m.EndToEnd), m.PerLayer...)
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// repeatRuns runs BENCHMARK.json's command the way the driver does, n times
// per workload on seeds seed..seed+n-1, and prints each metric's spread.
// The workloads are interleaved seed by seed, so a slow stretch of the host
// lands on all of them instead of on one.
func (r *runner) repeatRuns(only string, n int, out string, trace int) error {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	var names []string
	for _, w := range man.Workloads {
		if only == "" || only == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("workload %q is not in BENCHMARK.json", only)
	}
	var c campaign
	for i := 0; i < n; i++ {
		seed := r.seed + uint64(i)
		for _, name := range names {
			args := append(append([]string(nil), man.Command[1:]...),
				"--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(man.RunSeconds), "--trace", strconv.Itoa(trace))
			cmd := exec.Command(man.Command[0], args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			ch, err := r.procs.startNested(cmd)
			if err != nil {
				return err
			}
			if err := r.procs.waitTimeout(ch, hardLimit+30*time.Second); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			// The run's detail file carries the result line plus the
			// output hash and counts; the line itself is checked to be
			// the last thing printed, as the driver requires.
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
			}
			data, err := os.ReadFile(filepath.Join(r.dir, "out", name+".result.json"))
			if err != nil {
				return err
			}
			var d detail
			if err := json.Unmarshal(data, &d); err != nil {
				return err
			}
			c.Runs = append(c.Runs, d)
			logf("%s seed %d: %.1f s, correct=%v", name, seed, d.WallSeconds, res.Correct)
		}
		if out != "" {
			if err := writeJSONFile(out, c); err != nil {
				return err
			}
		}
	}
	printSpreads(os.Stdout, &c, man)
	return nil
}

// series collects one metric's values per workload across a campaign.
func (c *campaign) series() (workloads []string, byKey map[[2]string][]float64) {
	byKey = make(map[[2]string][]float64)
	seen := map[string]bool{}
	for _, d := range c.Runs {
		if !seen[d.Workload] {
			seen[d.Workload] = true
			workloads = append(workloads, d.Workload)
		}
		for _, name := range sortedKeys(d.Result.Metrics) {
			key := [2]string{d.Workload, name}
			byKey[key] = append(byKey[key], d.Result.Metrics[name].Value)
		}
	}
	return workloads, byKey
}

// spread is the interquartile range over the median: what the driver
// compares with a metric's bound.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

func printSpreads(w io.Writer, c *campaign, man *manifest) {
	workloads, byKey := c.series()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\tmedian\tIQR/median\trange/median\tbound\t")
	for _, wl := range workloads {
		for _, m := range man.metrics() {
			v := byKey[[2]string{wl, m.Name}]
			if len(v) < 2 {
				continue
			}
			s := sorted(v)
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.1f%%", *m.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g %s\t%.1f%%\t%.1f%%\t%s\t\n", wl, m.Name, len(v), median(v), m.Unit,
				spread(v)*100, ratio(s[len(s)-1]-s[0], median(v))*100, bound)
		}
	}
	tw.Flush()
	var wall float64
	for _, d := range c.Runs {
		wall += d.WallSeconds
	}
	fmt.Fprintf(w, "%d runs, %.0f s inside the runner (%.1f s a run)\n", len(c.Runs), wall, ratio(wall, float64(len(c.Runs))))
}

// compareFiles prints the delta table of campaign b against campaign a.
// Verdicts follow the rule a PR is judged by: a bounded metric whose median
// got worse by more than its bound is a REGRESSION; where a's own
// interquartile spread is wider than the bound the pair is unresolved
// unless every run of b reads better than every run of a; the rest is ok.
// Sim runs paired by workload and seed must agree on their output hash and
// on every report count.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) error {
	man, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	var a, b campaign
	for _, in := range []struct {
		path string
		c    *campaign
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(in.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, in.c); err != nil {
			return fmt.Errorf("%s: %w", in.path, err)
		}
	}
	workloads, va := a.series()
	_, vb := b.series()

	regressions := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tmedian b\tdelta\tbound\tverdict\t")
	for _, wl := range workloads {
		for _, m := range man.metrics() {
			xa, xb := va[[2]string{wl, m.Name}], vb[[2]string{wl, m.Name}]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			delta := ratio(mb-ma, math.Abs(ma))
			bound, verdict := "-", ""
			if m.Bound != nil {
				bound = fmt.Sprintf("%.1f%%", *m.Bound*100)
				verdict = judge(xa, xb, m.Better == "higher", *m.Bound)
				if verdict == "REGRESSION" {
					regressions++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%s\t%s\t\n", wl, m.Name, ma, mb, delta*100, bound, verdict)
		}
	}
	tw.Flush()

	paired, same := 0, 0
	for _, da := range a.Runs {
		for _, db := range b.Runs {
			if da.Workload != db.Workload || da.Seed != db.Seed || da.Trace != db.Trace || da.OutputSHA256 == "" {
				continue
			}
			paired++
			diff := diffCounts(da.Counts, db.Counts)
			if da.OutputSHA256 == db.OutputSHA256 && len(diff) == 0 {
				same++
				continue
			}
			hash := "identical"
			if da.OutputSHA256 != db.OutputSHA256 {
				hash = "DIFFERS"
			}
			fmt.Fprintf(w, "%s seed %d: output hash %s, report counts that differ: %v\n", da.Workload, da.Seed, hash, diff)
		}
	}
	fmt.Fprintf(w, "sim runs paired by seed: %d, with identical output hash and report counts: %d\n", paired, same)
	if regressions > 0 {
		return fmt.Errorf("%d end-to-end regressions", regressions)
	}
	return nil
}

// judge gives the verdict for one bounded metric.
func judge(a, b []float64, higherBetter bool, bound float64) string {
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	worse := sign * ratio(median(b)-median(a), math.Abs(median(a)))
	sa, sb := sorted(a), sorted(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if higherBetter {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case worse > bound:
		return "REGRESSION"
	case len(a) >= 2 && spread(a) > bound && !allBetter:
		return "unresolved"
	default:
		return "ok"
	}
}

// diffCounts lists the report counts whose values differ, sorted.
func diffCounts(a, b map[string]float64) []string {
	var out []string
	for _, k := range sortedKeys(a) {
		if vb, ok := b[k]; !ok || vb != a[k] {
			out = append(out, k)
		}
	}
	for _, k := range sortedKeys(b) {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
