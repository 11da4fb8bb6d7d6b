package metrics

import "sort"

// Histogram buckets are fixed and log-spaced: bucket i spans
// (bounds[i-1], bounds[i]] with bounds[i] = HistMinBound × 2^i, plus one
// overflow bucket above the last bound. Fixing the layout (rather than
// sizing it per run) keeps snapshots deterministic and makes histograms
// from different runs, seeds and backends mergeable bucket-by-bucket —
// the property Merge relies on.
const (
	// HistMinBound is the first upper bound, in the instrument's unit
	// (seconds for duration histograms): observations at or below 1 ms
	// land in bucket 0.
	HistMinBound = 0.001
	// HistBuckets is the number of bounded buckets; with factor-2 spacing
	// the last bound is ~1.1e9 s, far beyond any task duration, so the
	// overflow bucket only catches pathological values.
	HistBuckets = 41
)

// histBounds is the shared upper-bound table (computed once; len
// HistBuckets).
var histBounds = func() []float64 {
	b := make([]float64, HistBuckets)
	v := HistMinBound
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// Histogram counts observations into the fixed log-spaced buckets and
// tracks the exact sum, count, min and max. Like every instrument,
// methods on a nil histogram are no-ops, so instrumented code runs
// bit-identically and allocation-free with collection off.
type Histogram struct {
	key    Key
	counts []int64 // len HistBuckets+1; last is overflow
	sum    float64
	count  int64
	min    float64
	max    float64
	sink   Sink
}

// Histogram returns the histogram registered under (layer, name, scope),
// creating it on first use. A nil collector returns a nil (no-op)
// histogram.
func (c *Collector) Histogram(layer Layer, name, scope string) *Histogram {
	if c == nil {
		return nil
	}
	k := Key{Layer: layer, Name: name, Scope: scope}
	if h := c.hIndex[k]; h != nil {
		return h
	}
	h := &Histogram{key: k, counts: make([]int64, HistBuckets+1), sink: c.sink}
	c.hIndex[k] = h
	c.histograms = append(c.histograms, h)
	return h
}

// Observe records one value. Negative observations clamp to the first
// bucket (durations cannot be negative; a clock hiccup must not panic).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(histBounds, v)
	h.counts[idx]++ // idx == HistBuckets means overflow
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.sum += v
	h.count++
	if h.sink != nil {
		h.sink.Push(Update{Layer: h.key.Layer, Name: h.key.Name, Scope: h.key.Scope,
			Kind: "histogram", Time: -1, Value: v})
	}
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 for a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}
