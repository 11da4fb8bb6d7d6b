package harness

import (
	"bytes"
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
			if st.Runs != 1 || len(st.Jobs) != 1 || st.Jobs[0].Makespan <= 0 {
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

func TestRenderTable2(t *testing.T) {
	policies := []string{"VO-V1", "VO-V3", "VO-V5", "HA-V1"}
	sw := &Sweep{
		Variants: policies[:3], // HA-V1 is named but was not run: a column of zeros
		Rates:    []float64{0.1, 0.5},
		Cells:    map[string]map[float64]Stats{},
	}
	for i, p := range sw.Variants {
		sw.Cells[p] = map[float64]Stats{0.5: {Jobs: []JobStats{{
			AvgMapTime: float64(20 + i), AvgShuffleTime: 100, AvgReduceTime: 50,
			KilledMaps: float64(10 * i), KilledReduces: 1,
		}}}}
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
		Cells:    map[string]map[float64]Stats{"X": {0.5: {Jobs: []JobStats{{Makespan: 28800}}, Span: 28800, Capped: true}}},
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
