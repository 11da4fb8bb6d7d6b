package harness

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// tinyConfig keeps harness tests fast: 1 seed, 1/16-scale workloads, two
// churn rates.
func tinyConfig() Config {
	return Config{Seeds: []uint64{1}, Scale: 16, Rates: []float64{0.1, 0.5}}
}

func TestRunSweepAndRender(t *testing.T) {
	cfg := tinyConfig()
	var progress []string
	cfg.Progress = func(s string) { progress = append(progress, s) }
	sw, err := cfg.RunSweep("test sweep", schedLines()[:2]) // Hadoop1Min, MOON
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Variants) != 2 || len(sw.Rates) != 2 {
		t.Fatalf("sweep shape %dx%d", len(sw.Variants), len(sw.Rates))
	}
	if len(progress) != 4 {
		t.Fatalf("progress lines %d, want 4", len(progress))
	}
	for _, v := range sw.Variants {
		for _, r := range sw.Rates {
			st := sw.Get(v, r)
			if len(sw.Runs(v, r)) != 1 || len(st.Jobs) != 1 || st.Jobs[0].Makespan <= 0 {
				t.Fatalf("cell %s/%v = %+v", v, r, st)
			}
		}
	}
	var buf bytes.Buffer
	if err := sw.RenderTimes(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Hadoop1Min") || !strings.Contains(out, "0.5") {
		t.Fatalf("times table malformed:\n%s", out)
	}
	buf.Reset()
	if err := sw.RenderDuplicates(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "duplicated tasks") {
		t.Fatal("duplicates table missing header")
	}
}

// statBits lists every number of st as its bits, and Capped, so two runs
// compare bit for bit.
func statBits(st Stats) []uint64 {
	var bits []uint64
	for i := range st.Jobs {
		for _, f := range st.Jobs[i].fields() {
			bits = append(bits, math.Float64bits(*f))
		}
	}
	for _, f := range []float64{st.Span, st.Throughput, st.Completed} {
		bits = append(bits, math.Float64bits(f))
	}
	if st.Capped {
		return append(bits, 1)
	}
	return append(bits, 0)
}

// TestSweepKeepsEverySeed: a Fig 4-style sweep keeps each seed's run as
// the sweep of that one cell and seed runs it, at any Parallelism, and Get
// is the seed fold of those runs; a line the sweep did not run has no runs
// and reads as zeros.
func TestSweepKeepsEverySeed(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	base := Config{Seeds: seeds, Scale: 16, Rates: []float64{0.1, 0.5}}
	variants := schedLines()[:2]   // Hadoop1Min, MOON
	single := map[string][]Stats{} // label/rate → the one-cell sweep's run per seed
	for i, v := range variants {
		for _, rate := range base.Rates {
			for _, seed := range seeds {
				sw, err := Config{Seeds: []uint64{seed}, Scale: 16, Rates: []float64{rate}}.RunSweep("one", variants[i:i+1])
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprint(v.Label, rate)
				single[key] = append(single[key], sw.runs...)
			}
		}
	}
	for _, parallelism := range []int{1, 2} {
		cfg := base
		cfg.Parallelism = parallelism
		sw, err := cfg.RunSweep("every seed", variants)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sw.Seeds, seeds) {
			t.Fatalf("parallelism %d: seeds %v, want %v", parallelism, sw.Seeds, seeds)
		}
		for _, v := range sw.Variants {
			for _, rate := range sw.Rates {
				runs := sw.Runs(v, rate)
				if len(runs) != len(seeds) {
					t.Fatalf("parallelism %d: %s/%v kept %d runs, want %d", parallelism, v, rate, len(runs), len(seeds))
				}
				want := single[fmt.Sprint(v, rate)]
				for k := range seeds {
					if !slices.Equal(statBits(runs[k]), statBits(want[k])) {
						t.Errorf("parallelism %d: %s/%v seed %d: %+v, its one-cell sweep ran %+v",
							parallelism, v, rate, seeds[k], runs[k], want[k])
					}
				}
				if got, want := sw.Get(v, rate), mergeSeeds(runs); !slices.Equal(statBits(got), statBits(want)) {
					t.Errorf("parallelism %d: %s/%v Get %+v, seed fold %+v", parallelism, v, rate, got, want)
				}
			}
		}
		if runs := sw.Runs("MOON-Hybrid", 0.5); runs != nil {
			t.Errorf("a line the sweep did not run has %d runs", len(runs))
		}
		if st := sw.Get("MOON-Hybrid", 0.5); !reflect.DeepEqual(st, Stats{}) {
			t.Errorf("a line the sweep did not run reads %+v, want zeros", st)
		}
	}
}

func TestRenderTable2(t *testing.T) {
	policies := []string{"VO-V1", "VO-V3", "VO-V5", "HA-V1"}
	sw := &Sweep{
		Variants: policies[:3], // HA-V1 is named but was not run: a column of zeros
		Rates:    []float64{0.1, 0.5},
		Seeds:    []uint64{1},
	}
	for i := range sw.Variants {
		sw.runs = append(sw.runs, Stats{}, Stats{Jobs: []JobStats{{ // rates 0.1 and 0.5
			AvgMapTime: float64(20 + i), AvgShuffleTime: 100, AvgReduceTime: 50,
			KilledMaps: float64(10 * i), KilledReduces: 1,
		}}})
	}
	var buf bytes.Buffer
	if err := sw.RenderTable2(&buf, "sort", policies); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table II (sort)", "at 0.5 unavailability", "Avg Map Time", "Avg Shuffle Time",
		"Avg #Killed Maps", "VO-V1", "HA-V1", "22.0", "0.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DAY1", "DAY7", "09:00", "average unavailability"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig1 output missing %q", want)
		}
	}
}

func TestCappedRendering(t *testing.T) {
	sw := &Sweep{
		Variants: []string{"X"},
		Rates:    []float64{0.5},
		Seeds:    []uint64{1},
		runs:     []Stats{{Jobs: []JobStats{{Makespan: 28800}}, Span: 28800, Capped: true}},
	}
	var buf bytes.Buffer
	if err := sw.RenderTimes(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ">28800") {
		t.Fatalf("capped cell not marked: %s", buf.String())
	}
	buf.Reset()
	if err := sw.RenderStream(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ">28800") {
		t.Fatalf("capped stream cell not marked: %s", buf.String())
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if len(cfg.Rates) != 3 || cfg.Scale != 1 || len(cfg.Seeds) != 1 {
		t.Fatalf("default config %+v", cfg)
	}
	set := Config{Seeds: []uint64{7}, Scale: 4, Rates: []float64{0.2}}.WithDefaults()
	if set.Seeds[0] != 7 || set.Scale != 4 || set.Rates[0] != 0.2 {
		t.Fatalf("WithDefaults overwrote set axes: %+v", set)
	}
}
