package metrics

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// Schema is the versioned identifier of the run-report JSON format. Bump
// the suffix on breaking changes to the layout below.
const Schema = "moon-metrics/v1"

// CounterPoint is one counter's exported total.
type CounterPoint struct {
	Key
	Value float64 `json:"value"`
}

// GaugePoint is one gauge's exported state.
type GaugePoint struct {
	Key
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// SeriesPoint is one non-empty series bucket. T is the bucket's start time
// in simulated seconds; Value is the bucket sum (rate series) or mean
// (sample series); Count is how many observations landed in the bucket
// (summed across merged runs).
type SeriesPoint struct {
	T     float64 `json:"t"`
	Value float64 `json:"value"`
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// SeriesData is one exported time series.
type SeriesData struct {
	Key
	Kind   string        `json:"kind"`
	Bucket float64       `json:"bucket_seconds"`
	Points []SeriesPoint `json:"points"`
}

// HistogramBucket is one non-empty histogram bucket: the count of
// observations at or below UpperBound (and above the previous bound).
// Overflow marks the open-ended bucket past the last fixed bound; its
// UpperBound then reports that last bound.
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Overflow   bool    `json:"overflow,omitempty"`
	Count      int64   `json:"count"`
}

// HistogramData is one exported distribution over the fixed log-spaced
// buckets, with its exact sum, count and extremes. Only non-empty buckets
// are exported, in ascending bound order.
type HistogramData struct {
	Key
	Count   int64             `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Buckets []HistogramBucket `json:"buckets"`
}

// Snapshot is one run's (or one merged cell's) full metric state.
type Snapshot struct {
	Bucket     float64         `json:"bucket_seconds"`
	Counters   []CounterPoint  `json:"counters,omitempty"`
	Gauges     []GaugePoint    `json:"gauges,omitempty"`
	Series     []SeriesData    `json:"series,omitempty"`
	Histograms []HistogramData `json:"histograms,omitempty"`
}

// Merge folds repeated runs of one configuration (e.g. the seeds of a sweep
// cell) into a seed-averaged snapshot: counter totals, gauge values and
// series bucket values are averaged across the n runs (an instrument absent
// from a run contributes 0, and a sample bucket averages the runs' means),
// gauge/bucket min and max are the extremes over all runs, and bucket
// counts are summed. Histograms aggregate rather than average: the merged
// cell reports the distribution over every observation of every run,
// because "the task-duration distribution across the cell's seeds" is the
// question a histogram answers; bucket layouts are fixed, so merging is
// exact. Inputs are folded in slice order, so the result is deterministic.
// Merging an empty slice yields the zero Snapshot.
func Merge(snaps []Snapshot) Snapshot {
	if len(snaps) == 0 {
		return Snapshot{}
	}
	n := float64(len(snaps))
	return Snapshot{
		Bucket: snaps[0].Bucket,
		Counters: fold(snaps, func(s Snapshot) []CounterPoint { return s.Counters }, CounterPoint.id, Key.compare,
			func(g []CounterPoint) CounterPoint {
				p := g[0]
				for _, q := range g[1:] {
					p.Value += q.Value
				}
				p.Value /= n
				return p
			}),
		Gauges: fold(snaps, func(s Snapshot) []GaugePoint { return s.Gauges }, GaugePoint.id, Key.compare,
			func(g []GaugePoint) GaugePoint {
				p := g[0]
				for _, q := range g[1:] {
					p.Value += q.Value
					widen(&p.Min, &p.Max, q.Min, q.Max)
				}
				p.Value /= n
				return p
			}),
		Series: fold(snaps, func(s Snapshot) []SeriesData { return s.Series }, SeriesData.id, Key.compare,
			func(g []SeriesData) SeriesData {
				sd := g[0]
				sd.Points = fold(g, func(sd SeriesData) []SeriesPoint { return sd.Points },
					func(p SeriesPoint) float64 { return p.T }, cmp.Compare[float64],
					func(g []SeriesPoint) SeriesPoint {
						p := g[0]
						for _, q := range g[1:] {
							p.Value += q.Value
							p.Count += q.Count
							widen(&p.Min, &p.Max, q.Min, q.Max)
						}
						p.Value /= n
						return p
					})
				return sd
			}),
		Histograms: fold(snaps, func(s Snapshot) []HistogramData { return s.Histograms }, HistogramData.id, Key.compare,
			func(g []HistogramData) HistogramData {
				hd := g[0]
				for _, x := range g[1:] {
					hd.Count += x.Count
					hd.Sum += x.Sum
					widen(&hd.Min, &hd.Max, x.Min, x.Max)
				}
				hd.Buckets = fold(g, func(hd HistogramData) []HistogramBucket { return hd.Buckets },
					func(b HistogramBucket) float64 {
						if b.Overflow {
							return math.Inf(1) // reports the last bound, sorts past it
						}
						return b.UpperBound
					}, cmp.Compare[float64],
					func(g []HistogramBucket) HistogramBucket {
						b := g[0]
						for _, x := range g[1:] {
							b.Count += x.Count
						}
						return b
					})
				return hd
			}),
	}
}

// fold is Merge at every level: it groups the records that recs lists in
// each of srcs by key, in input order, and returns one merged record per
// key, in key order. A key missing from the first source still lands in
// order.
func fold[S, R any, K comparable](srcs []S, recs func(S) []R, key func(R) K, order func(a, b K) int, merge func([]R) R) []R {
	groups := make(map[K][]R)
	var keys []K
	for _, s := range srcs {
		for _, r := range recs(s) {
			k := key(r)
			if groups[k] == nil {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], r)
		}
	}
	slices.SortFunc(keys, order)
	var out []R
	for _, k := range keys {
		out = append(out, merge(groups[k]))
	}
	return out
}

// Experiment is one sweep cell's merged metrics inside an Export: the
// experiment title, the variant line, the churn rate, how many runs (seeds)
// were merged, and the snapshot itself.
type Experiment struct {
	Experiment string  `json:"experiment"`
	Variant    string  `json:"variant"`
	Rate       float64 `json:"rate"`
	Runs       int     `json:"runs"`
	Snapshot
}

// Export is the top-level run report written by `moonbench -metrics`: a
// schema-versioned header plus one Experiment entry per swept cell.
//
// Scenario and SpecHash, when set, record which scenario spec produced the
// report (the spec's name and its content hash), making exported reports
// self-describing: two reports with equal hashes came from byte-identical
// experiment definitions.
type Export struct {
	Schema      string       `json:"schema"`
	Tool        string       `json:"tool,omitempty"`
	Scenario    string       `json:"scenario,omitempty"`
	SpecHash    string       `json:"spec_hash,omitempty"`
	Experiments []Experiment `json:"experiments"`
}

// NewExport returns an empty report for the given tool name.
func NewExport(tool string) *Export {
	return &Export{Schema: Schema, Tool: tool}
}

// Add appends one merged cell to the report.
func (e *Export) Add(experiment, variant string, rate float64, runs int, snap Snapshot) {
	e.Experiments = append(e.Experiments, Experiment{
		Experiment: experiment, Variant: variant, Rate: rate, Runs: runs, Snapshot: snap,
	})
}

// WriteJSON writes the report as indented JSON.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteTimelineCSV writes every series point of every experiment as one CSV
// row — the flat timeline dump plotting tools ingest directly.
func (e *Export) WriteTimelineCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,variant,rate,layer,name,scope,kind,t,value,count"); err != nil {
		return err
	}
	for _, exp := range e.Experiments {
		for _, sd := range exp.Series {
			for _, pt := range sd.Points {
				if _, err := fmt.Fprintf(w, "%q,%q,%g,%s,%s,%s,%s,%g,%g,%d\n",
					exp.Experiment, exp.Variant, exp.Rate,
					sd.Layer, sd.Name, sd.Scope, sd.Kind, pt.T, pt.Value, pt.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
