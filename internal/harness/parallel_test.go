package harness

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestParallelSweepMatchesSerial is the determinism guard for the worker
// pool: a multi-seed Fig4-style sweep must produce identical Stats,
// identical rendered tables, and identically ordered progress lines at
// Parallelism 1 and 8.
func TestParallelSweepMatchesSerial(t *testing.T) {
	base := Config{Seeds: []uint64{1, 2, 3}, Scale: 16, Rates: []float64{0.1, 0.5}}
	variants := schedLines()[:2] // Hadoop1Min, MOON

	run := func(parallelism int) (*Sweep, []string) {
		cfg := base
		cfg.Parallelism = parallelism
		var progress []string
		cfg.Progress = func(s string) { progress = append(progress, s) }
		sw, err := cfg.RunSweep("determinism", variants)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return sw, progress
	}

	serial, serialLines := run(1)
	parallel, parallelLines := run(8)

	for _, v := range serial.Variants {
		for _, r := range serial.Rates {
			a, b := serial.Get(v, r), parallel.Get(v, r)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("cell %s/%v differs:\nserial:   %+v\nparallel: %+v", v, r, a, b)
			}
		}
	}

	var bufA, bufB bytes.Buffer
	if err := serial.RenderTimes(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := parallel.RenderTimes(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("rendered tables differ:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}

	if len(serialLines) != len(parallelLines) {
		t.Fatalf("progress line count: serial %d, parallel %d", len(serialLines), len(parallelLines))
	}
	for i := range serialLines {
		if serialLines[i] != parallelLines[i] {
			t.Errorf("progress line %d differs:\nserial:   %s\nparallel: %s", i, serialLines[i], parallelLines[i])
		}
	}
}

// TestSeedRepeatability: the same seed must give a bit-identical makespan
// across repeated (and concurrent) sweeps.
func TestSeedRepeatability(t *testing.T) {
	cfg := Config{Seeds: []uint64{7}, Scale: 16, Rates: []float64{0.3}, Parallelism: 4}
	variants := schedLines()[1:2] // MOON

	first, err := cfg.RunSweep("repeat-a", variants)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cfg.RunSweep("repeat-b", variants)
	if err != nil {
		t.Fatal(err)
	}
	a := first.Get("MOON", 0.3).Jobs[0].Makespan
	b := second.Get("MOON", 0.3).Jobs[0].Makespan
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("same seed produced different makespans: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("makespan %v, want > 0", a)
	}
}

// TestEmptySweep: no variants means an empty, error-free sweep at any
// parallelism.
func TestEmptySweep(t *testing.T) {
	cfg := Config{Seeds: []uint64{1}, Scale: 16, Rates: []float64{0.1}, Parallelism: 8}
	sw, err := cfg.RunSweep("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Variants) != 0 {
		t.Fatalf("variants %v, want none", sw.Variants)
	}
}

// failCell passes its check and fails its run, as a cell does whose failure
// only the run meets (trace generation, dfs.New, the live engine). The
// seed-1 cell fails last, so the first error a pool sees is not the one to
// report.
type failCell struct{}

func (failCell) check(Config, float64) error { return nil }

func (failCell) run(_ Config, _ float64, seed uint64, _ *metrics.Collector) (Stats, string, error) {
	if seed == 1 {
		time.Sleep(20 * time.Millisecond)
	}
	return Stats{}, "", errors.New("run-time failure")
}

// TestSweepErrorSelection: the reported error is the first failing cell in
// serial order, independent of worker scheduling.
func TestSweepErrorSelection(t *testing.T) {
	cfg := Config{Seeds: []uint64{1, 2}, Scale: 16, Rates: []float64{0.1}, Parallelism: 8}
	_, err := cfg.RunSweep("errors", []Variant{{"BAD-A", failCell{}}, {"BAD-B", failCell{}}})
	if err == nil {
		t.Fatal("sweep of failing cells did not fail")
	}
	want := "BAD-A rate=0.1 seed=1"
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("error %q does not name the first failing cell %q", got, want)
	}
}
