package repro

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mapred"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// claimsFile is paper/claims.json (moon-claims/v1): the paper's published
// results and the settings the code quotes, each written once. PAPER.md
// says what each row means and how a row is read.
type claimsFile struct {
	Schema string `json:"schema"`
	Claims []struct {
		ID        string   `json:"id"`
		Figure    string   `json:"figure,omitempty"`
		App       string   `json:"app,omitempty"`
		X         float64  `json:"x,omitempty"`
		Metric    string   `json:"metric,omitempty"`
		Kind      string   `json:"kind"`
		LHS       []string `json:"lhs,omitempty"`
		RHS       []string `json:"rhs,omitempty"`
		Published float64  `json:"published,omitempty"`
		P         float64  `json:"p,omitempty"`
		PD        float64  `json:"p_d,omitempty"`
		Target    float64  `json:"target,omitempty"`
		Tolerance float64  `json:"tolerance"`
		Source    string   `json:"source"`
		Verified  bool     `json:"verified"`
	} `json:"claims"`
	Parameters []struct {
		Name   string  `json:"name"`
		Paper  float64 `json:"paper"`
		Source string  `json:"source"`
	} `json:"parameters"`
}

var sourceRef, paperEntry = regexp.MustCompile(`^[\w./-]+:[0-9]+ @ [0-9a-f]{7}$`), regexp.MustCompile("(?m)^- `([a-z0-9-]+)`:")

// TestPaperClaims holds paper/claims.json to its form, each sweep row to the
// compiled paper-figures scenario, each model row to its arithmetic, each
// parameter to the code's default, and PAPER.md to the file's ids.
func TestPaperClaims(t *testing.T) {
	raw, err := os.ReadFile("paper/claims.json")
	var f claimsFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := errors.Join(err, dec.Decode(&f)); err != nil {
		t.Fatal(err)
	}
	if canon, _ := json.MarshalIndent(f, "", "  "); !bytes.Equal(raw, append(canon, '\n')) || f.Schema != "moon-claims/v1" {
		t.Error("paper/claims.json is not moon-claims/v1 as json.MarshalIndent(v, \"\", \"  \") writes it")
	}
	spec, _ := scenario.Lookup("paper-figures")
	plan, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ids, bound := map[string]bool{}, 0.0 // bound: the one tolerance of ratio and absolute rows
	for _, c := range f.Claims {
		ids[c.ID] = true
		exact := c.Kind == "ordering" || c.Kind == "trend" || c.Kind == "model"
		if bound == 0 && !exact {
			bound = c.Tolerance
		}
		if !exact && c.Kind != "ratio" && c.Kind != "absolute" || exact != (c.Tolerance == 0) ||
			!exact && (c.Tolerance != bound || !(c.Published > 0)) || !sourceRef.MatchString(c.Source) {
			t.Errorf("%s: kind %q, tolerance %v (the bound: %v), published %v, source %q", c.ID, c.Kind, c.Tolerance, bound, c.Published, c.Source)
		}
		// Only a sweep row reads lines, and every kind but absolute compares two.
		sweep := c.Kind != "model" && c.Figure != "fig1"
		if sweep != (c.X != 0) || sweep != (c.Metric != "") || sweep != (len(c.LHS) > 0) || (sweep && c.Kind != "absolute") != (len(c.RHS) > 0) {
			t.Errorf("%s: a %s row of %q with x %v, metric %q, lhs %v, rhs %v", c.ID, c.Kind, c.Figure, c.X, c.Metric, c.LHS, c.RHS)
		}
		if c.Kind == "model" {
			miss := (1 - c.Target) / cmp.Or(c.PD, 1) // with one dedicated copy when p_d is set
			if copies := math.Ceil(math.Log(miss) / math.Log(c.P)); c.Figure != "" || copies != c.Published {
				t.Errorf("%s: figure %q, %v copies", c.ID, c.Figure, copies)
			}
			continue
		}
		one, err := scenario.Compile(&scenario.Spec{Schema: scenario.Schema, Name: c.ID,
			Experiments: []scenario.Experiment{{Figure: c.Figure, App: c.App}}})
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		run := one.Runs[0]
		if !slices.ContainsFunc(plan.Runs, func(r scenario.PlanRun) bool { return r.Title == run.Title }) {
			t.Errorf("%s: %s %s (%q) is not a run of paper-figures", c.ID, c.Figure, c.App, run.Title)
		}
		_, field := reflect.TypeOf(harness.JobStats{}).FieldByName(c.Metric)
		if rates := plan.Config.WithDefaults().Rates; sweep && (!field || !slices.Contains(rates, c.X)) {
			t.Errorf("%s: metric %q (a harness.JobStats field: %v) at rate %v (one of %v)", c.ID, c.Metric, field, c.X, rates)
		}
		for _, l := range append(c.LHS, c.RHS...) {
			if !slices.ContainsFunc(run.Variants, func(v harness.Variant) bool { return v.Label == l }) {
				t.Errorf("%s: %q is not a line of %q", c.ID, l, run.Title)
			}
		}
	}

	// fleet is the cluster of a line of a figure's sort run, compiled above.
	fleet := func(fig, label string) core.ClusterSpec {
		one, _ := scenario.Compile(&scenario.Spec{Schema: scenario.Schema, Name: fig,
			Experiments: []scenario.Experiment{{Figure: fig, App: "sort"}}})
		run := one.Runs[0]
		i := slices.IndexFunc(run.Variants, func(v harness.Variant) bool { return v.Label == label })
		return run.Variants[i].Cell.(harness.SimCell).Build(core.ClusterSpec{}).Cluster
	}
	testbed := fleet("fig4", "MOON-Hybrid")
	moon := mapred.DefaultSchedConfig(mapred.PolicyMOON)
	sort, wc := workload.Sort(2*66), workload.WordCount()
	sleepSort, sleepWC := workload.SleepApp(sort), workload.SleepApp(wc)
	code := map[string]float64{
		"homestretch-h":            moon.HomestretchH,
		"homestretch-r":            float64(moon.HomestretchR),
		"spec-slot-fraction":       moon.SpecSlotFraction,
		"moon-tracker-expiry-s":    moon.TrackerExpiry,
		"mean-outage-s":            trace.DefaultOutageConfig(0.4).MeanOutage,
		"testbed-volatile":         float64(testbed.VolatileNodes),
		"testbed-dedicated":        float64(testbed.DedicatedNodes),
		"fig7-dedicated-1":         float64(fleet("fig7", "MOON-HybridD3").DedicatedNodes),
		"fig7-dedicated-2":         float64(fleet("fig7", "MOON-HybridD4").DedicatedNodes),
		"fig7-dedicated-3":         float64(fleet("fig7", "MOON-HybridD6").DedicatedNodes),
		"sort-input-gb":            sort.InputSize / workload.GB,
		"sort-maps":                float64(sort.Job.NumMaps),
		"wordcount-input-gb":       wc.InputSize / workload.GB,
		"wordcount-maps":           float64(wc.Job.NumMaps),
		"wordcount-reduces":        float64(wc.Job.NumReduces),
		"sleep-sort-map-s":         sleepSort.Job.MapCPU,
		"sleep-sort-reduce-s":      sleepSort.Job.ReduceCPU,
		"sleep-wordcount-map-s":    sleepWC.Job.MapCPU,
		"sleep-wordcount-reduce-s": sleepWC.Job.ReduceCPU,
	}
	for _, p := range f.Parameters {
		ids[p.Name] = true
		if v, ok := code[p.Name]; !ok || v != p.Paper || !sourceRef.MatchString(p.Source) {
			t.Errorf("%s: paper %v, code %v (read: %v), source %q", p.Name, p.Paper, v, ok, p.Source)
		}
		delete(code, p.Name)
	}
	if len(ids) != len(f.Claims)+len(f.Parameters) || len(code) > 0 {
		t.Errorf("paper/claims.json repeats an id or lacks the parameters %v", code)
	}
	doc, _ := os.ReadFile("PAPER.md") // a missing file has no entries
	for _, m := range paperEntry.FindAllSubmatch(doc, -1) {
		if !ids[string(m[1])] {
			t.Errorf("PAPER.md names %s, which paper/claims.json does not, or names it twice", m[1])
		}
		delete(ids, string(m[1]))
	}
	for id := range ids {
		t.Errorf("PAPER.md has no entry for %s", id)
	}
}
