package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestHistogramBucketsObservationsLogSpaced(t *testing.T) {
	c := New(60)
	h := c.Histogram(LayerEngine, "task_duration_seconds", "map")
	// 0.001 lands in bucket 0 (le 0.001); 0.0015 in bucket 1 (le 0.002);
	// 5 between 2^12*0.001=4.096 and 8.192.
	h.Observe(0.001)
	h.Observe(0.0015)
	h.Observe(5)
	h.Observe(5)
	snap := c.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms in snapshot: %d", len(snap.Histograms))
	}
	hd := snap.Histograms[0]
	if got, want := hd.Sum, 0.001+0.0015+10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum %v, want %v", got, want)
	}
	if hd.Layer != "engine" || hd.Name != "task_duration_seconds" || hd.Scope != "map" {
		t.Fatalf("histogram key %s/%s/%s", hd.Layer, hd.Name, hd.Scope)
	}
	if hd.Count != 4 || hd.Min != 0.001 || hd.Max != 5 {
		t.Fatalf("histogram stats %+v", hd)
	}
	if len(hd.Buckets) != 3 {
		t.Fatalf("non-empty buckets %d: %+v", len(hd.Buckets), hd.Buckets)
	}
	for i := 1; i < len(hd.Buckets); i++ {
		if hd.Buckets[i].UpperBound <= hd.Buckets[i-1].UpperBound {
			t.Fatal("buckets not in ascending bound order")
		}
	}
	if hd.Buckets[0].UpperBound != 0.001 || hd.Buckets[0].Count != 1 {
		t.Fatalf("first bucket %+v", hd.Buckets[0])
	}
	if hd.Buckets[2].Count != 2 {
		t.Fatalf("5s bucket %+v", hd.Buckets[2])
	}
}

func TestHistogramOverflowAndNegative(t *testing.T) {
	c := New(60)
	h := c.Histogram(LayerSim, "x", "")
	h.Observe(-1)   // clamps into the first bucket
	h.Observe(1e12) // beyond the last bound: overflow
	snap := c.Snapshot()
	hd := snap.Histograms[0]
	if hd.Min != -1 || hd.Max != 1e12 {
		t.Fatalf("extremes %v/%v", hd.Min, hd.Max)
	}
	var sawOverflow bool
	for _, b := range hd.Buckets {
		if b.Overflow {
			sawOverflow = true
			if b.Count != 1 {
				t.Fatalf("overflow count %d", b.Count)
			}
		}
	}
	if !sawOverflow {
		t.Fatal("overflow bucket missing")
	}
	if hd.Buckets[0].UpperBound != histMinBound || hd.Buckets[0].Count != 1 {
		t.Fatalf("negative observation not in first bucket: %+v", hd.Buckets[0])
	}
}

func TestNilHistogramIsNoOp(t *testing.T) {
	var c *Collector
	h := c.Histogram(LayerEngine, "x", "")
	if h != nil {
		t.Fatal("nil collector returned a histogram")
	}
	h.Observe(1) // must not panic
}

func TestHistogramMergeSumsBuckets(t *testing.T) {
	mk := func(vals ...float64) Snapshot {
		c := New(60)
		h := c.Histogram(LayerMapred, "task_duration_seconds", "map")
		for _, v := range vals {
			h.Observe(v)
		}
		return c.Snapshot()
	}
	a := mk(0.001, 5)
	b := mk(5, 1e12)
	merged := Merge([]Snapshot{a, b})
	if len(merged.Histograms) != 1 {
		t.Fatalf("merged histograms %d", len(merged.Histograms))
	}
	hd := merged.Histograms[0]
	// Histograms aggregate (counts summed), unlike averaged counters.
	if hd.Count != 4 {
		t.Fatalf("merged count %d, want 4", hd.Count)
	}
	if hd.Min != 0.001 || hd.Max != 1e12 {
		t.Fatalf("merged extremes %v/%v", hd.Min, hd.Max)
	}
	var fives int64
	for _, bk := range hd.Buckets {
		if !bk.Overflow && bk.UpperBound > 4 && bk.UpperBound < 9 {
			fives = bk.Count
		}
	}
	if fives != 2 {
		t.Fatalf("5s bucket merged count %d, want 2", fives)
	}
	// Merging is deterministic in input order.
	again := Merge([]Snapshot{a, b})
	x, _ := json.Marshal(merged)
	y, _ := json.Marshal(again)
	if string(x) != string(y) {
		t.Fatal("merge not deterministic")
	}
}

func TestHistogramExportJSON(t *testing.T) {
	c := New(60)
	c.Histogram(LayerEngine, "task_duration_seconds", "reduce").Observe(0.5)
	e := NewExport("test")
	e.Add("exp", "v", 0.1, 1, c.Snapshot())
	var sb strings.Builder
	if err := e.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"histograms"`, `"le"`, `"task_duration_seconds"`, Schema} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %s:\n%s", want, out)
		}
	}
}

func TestHistogramBoundsFixedAndSorted(t *testing.T) {
	b := histBounds[:]
	if len(b) != histBuckets || b[0] != histMinBound {
		t.Fatalf("bounds %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] != b[i-1]*2 {
			t.Fatalf("bounds not factor-2 spaced at %d: %v vs %v", i, b[i], b[i-1])
		}
	}
}
