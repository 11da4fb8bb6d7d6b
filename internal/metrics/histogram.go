package metrics

import (
	"math"
	"sort"
)

// Histogram buckets are fixed and log-spaced: bucket i spans
// (bounds[i-1], bounds[i]] with bounds[i] = histMinBound × 2^i, plus one
// overflow bucket above the last bound. Fixing the layout (rather than
// sizing it per run) keeps snapshots deterministic and makes histograms
// from different runs, seeds and backends mergeable bucket-by-bucket —
// the property Merge relies on.
const (
	// histMinBound is the first upper bound, in the instrument's unit
	// (seconds for duration histograms): observations at or below 1 ms
	// land in bucket 0.
	histMinBound = 0.001
	// histBuckets is the number of bounded buckets; with factor-2 spacing
	// the last bound is ~1.1e9 s, far beyond any task duration, so the
	// overflow bucket only catches pathological values.
	histBuckets = 41
)

// histBounds is the shared upper-bound table.
var histBounds = func() (b [histBuckets]float64) {
	for i := range b {
		b[i] = math.Ldexp(histMinBound, i)
	}
	return b
}()

// Histogram counts observations into the fixed log-spaced buckets and
// tracks the exact sum, count, min and max. Like every instrument,
// methods on a nil histogram are no-ops, so instrumented code runs
// bit-identically and allocation-free with collection off.
type Histogram struct {
	inst
	counts []int64 // len histBuckets+1; last is overflow
	agg
}

// Histogram returns the histogram registered under (layer, name, scope),
// creating it on first use. A nil collector returns a nil (no-op)
// histogram.
func (c *Collector) Histogram(layer Layer, name, scope string) *Histogram {
	if c == nil {
		return nil
	}
	return c.histograms.get(c.sink, layer, name, scope, func() *Histogram {
		return &Histogram{counts: make([]int64, histBuckets+1)}
	})
}

// Observe records one value. Negative observations clamp to the first
// bucket (durations cannot be negative; a clock hiccup must not panic).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(histBounds[:], v)]++ // index histBuckets is overflow
	h.observe(v)
	h.push("histogram", -1, v)
}

// data exports the histogram's totals and non-empty buckets; the overflow
// bucket reports the last bound.
func (h *Histogram) data() HistogramData {
	hd := HistogramData{Key: h.key, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.counts {
		if n > 0 {
			hd.Buckets = append(hd.Buckets, HistogramBucket{
				UpperBound: histBounds[min(i, histBuckets-1)], Overflow: i == histBuckets, Count: n,
			})
		}
	}
	return hd
}
