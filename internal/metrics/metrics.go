// Package metrics is the cross-layer instrumentation bus of the MOON
// reproduction: typed counters, gauges, time-bucketed series and histograms
// named by a Key (layer, name, scope), collected per simulation run and
// exportable as a schema-versioned run report. Every exported record —
// CounterPoint, GaugePoint, SeriesData, HistogramData and Update — embeds
// the Key, so an instrument's identity is stated once.
//
// The design is allocation-conscious and strictly passive:
//
//   - Instruments are resolved once, at wiring time, into typed handles
//     (*Counter, *Gauge, *Series, *Histogram). The hot path is a field
//     update behind a nil check — a nil handle (no collector attached) is a
//     no-op, so instrumented code runs bit-identically and allocation-free
//     whether or not metrics are collected.
//   - Collection never touches model state, draws no randomness, and
//     schedules no simulation events, so enabling a collector cannot
//     perturb a run: profiles and run statistics are byte-identical with
//     metrics on or off (pinned by internal/harness/regression_test.go).
//   - Snapshots are deterministic: instruments are exported in Key order
//     regardless of registration order, and series buckets are indexed by
//     time, so equal runs produce equal reports.
//
// A Collector is single-threaded, like the simulation it observes; in
// parallel sweeps every cell owns its own Collector and the harness merges
// the resulting Snapshots deterministically.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// DefaultBucket is the default series bucket width in seconds: 300 s gives
// ~100 buckets over the paper's 8-hour trace horizon.
const DefaultBucket = 300

// CheckBucket is the rule for a series bucket width in seconds: 0 (the
// default) or finite and at least 1 s. Series buckets are dense from t = 0,
// so a width w costs 32 B × horizon / w per series.
func CheckBucket(w float64) error {
	if w == 0 || w >= 1 && !math.IsInf(w, 1) {
		return nil
	}
	return fmt.Errorf("metrics bucket %v (want 0 for the default, or finite and >= 1 s)", w)
}

// Layer identifies the subsystem that owns an instrument.
type Layer string

// The instrumented layers of the stack.
const (
	LayerSim     Layer = "sim"
	LayerCluster Layer = "cluster"
	LayerNet     Layer = "net"
	LayerDFS     Layer = "dfs"
	LayerMapred  Layer = "mapred"
	LayerEngine  Layer = "engine"
	// LayerTransport owns the live engine's message-fabric instruments:
	// traffic and injected-fault counts plus the failure-handling
	// protocol's lease expiries, session resets, retries and
	// duplicate-result discards.
	LayerTransport Layer = "transport"
)

// Key names one instrument: the owning layer, the metric name, and an
// optional scope (a job name, a node label, or "" for fleet-wide).
type Key struct {
	Layer Layer  `json:"layer"`
	Name  string `json:"name"`
	Scope string `json:"scope,omitempty"`
}

// id is how generic code reads the identity of a record that embeds a Key.
func (k Key) id() Key { return k }

func (k Key) compare(o Key) int {
	return cmp.Or(cmp.Compare(k.Layer, o.Layer), cmp.Compare(k.Name, o.Name), cmp.Compare(k.Scope, o.Scope))
}

// Collector gathers one run's instruments. The zero value is not usable;
// create with New. A nil *Collector is a valid "collection off" value:
// every instrument it returns is nil, and nil instruments no-op.
type Collector struct {
	bucket float64
	sink   Sink // optional push sink (stream.go); nil = no streaming

	counters   registry[*Counter]
	gauges     registry[*Gauge]
	series     registry[*Series]
	histograms registry[*Histogram]
}

// New returns an empty collector whose series use the given bucket width in
// seconds (<= 0 selects DefaultBucket).
func New(bucket float64) *Collector {
	if bucket <= 0 {
		bucket = DefaultBucket
	}
	return &Collector{bucket: bucket}
}

// inst is what every instrument carries: its key and the collector's sink.
type inst struct {
	key  Key
	sink Sink
}

func (i *inst) base() *inst { return i } // how registry reaches the fields

// push offers one write to the sink, if any.
func (i *inst) push(kind string, t, v float64) {
	if i.sink != nil {
		i.sink.Push(Update{Key: i.key, Kind: kind, Time: t, Value: v})
	}
}

// registry is one instrument kind's index plus its registration order.
type registry[P interface{ base() *inst }] struct {
	index map[Key]P
	list  []P
}

// get returns the instrument registered under (layer, name, scope), making
// it with mk and wiring in the key and sink on first use.
func (r *registry[P]) get(sink Sink, layer Layer, name, scope string, mk func() P) P {
	k := Key{Layer: layer, Name: name, Scope: scope}
	if p, ok := r.index[k]; ok {
		return p
	}
	p := mk()
	*p.base() = inst{key: k, sink: sink}
	if r.index == nil {
		r.index = make(map[Key]P)
	}
	r.index[k] = p
	r.list = append(r.list, p)
	return p
}

func (r *registry[P]) setSink(sink Sink) {
	for _, p := range r.list {
		p.base().sink = sink
	}
}

// Counter returns the counter registered under (layer, name, scope),
// creating it on first use. A nil collector returns a nil (no-op) counter.
func (c *Collector) Counter(layer Layer, name, scope string) *Counter {
	if c == nil {
		return nil
	}
	return c.counters.get(c.sink, layer, name, scope, func() *Counter { return new(Counter) })
}

// TimedCounter returns a counter that also accumulates a rate series (same
// key) bucketed over time, so totals come with a timeline: a bucket's
// exported value is the sum added in it. A nil collector returns nil.
func (c *Collector) TimedCounter(layer Layer, name, scope string) *Counter {
	if c == nil {
		return nil
	}
	ctr := c.Counter(layer, name, scope)
	if ctr.series == nil {
		ctr.series = c.newSeries(layer, name, scope, kindRate)
	}
	return ctr
}

// Gauge returns the gauge registered under (layer, name, scope), creating
// it on first use. A nil collector returns a nil (no-op) gauge.
func (c *Collector) Gauge(layer Layer, name, scope string) *Gauge {
	if c == nil {
		return nil
	}
	return c.gauges.get(c.sink, layer, name, scope, func() *Gauge { return new(Gauge) })
}

// SampleSeries returns a time-bucketed series with sample semantics:
// Observe(t, v) records v in t's bucket, and the bucket's exported value is
// the mean of its observations (e.g. slot occupancy sampled per heartbeat).
func (c *Collector) SampleSeries(layer Layer, name, scope string) *Series {
	if c == nil {
		return nil
	}
	return c.newSeries(layer, name, scope, kindSample)
}

func (c *Collector) newSeries(layer Layer, name, scope, kind string) *Series {
	return c.series.get(c.sink, layer, name, scope, func() *Series { return &Series{kind: kind, width: c.bucket} })
}

// Series value semantics: a rate bucket exports the sum of its values, a
// sample bucket their mean.
const (
	kindRate   = "rate"
	kindSample = "sample"
)

// agg is a running sum, count and extremes: a series bucket, a gauge's
// history, a histogram's totals.
type agg struct {
	sum      float64
	count    int64
	min, max float64
}

func (a *agg) observe(v float64) {
	if a.count == 0 {
		a.min, a.max = v, v
	}
	widen(&a.min, &a.max, v, v)
	a.sum += v
	a.count++
}

// widen stretches [*lo, *hi] to cover [l, h].
func widen(lo, hi *float64, l, h float64) {
	if l < *lo {
		*lo = l
	}
	if h > *hi {
		*hi = h
	}
}

// Counter accumulates a monotonically growing total. Methods on a nil
// counter are no-ops, so instrumented code needs no "metrics enabled"
// branches of its own.
type Counter struct {
	inst
	total  float64
	series *Series // optional timeline (TimedCounter)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v to the total (untimed: the optional timeline is not fed).
//
// Add and AddAt are the nil test and a call, small enough to inline: with
// collection off, an instrumented hot path (netmodel settles and refreshes a
// flow per touch) pays a compare, not a call.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	c.add(v)
}

func (c *Counter) add(v float64) {
	c.total += v
	c.push("counter", -1, c.total)
}

// AddAt adds v to the total and, for a TimedCounter, to the bucket of time
// t (seconds).
func (c *Counter) AddAt(t, v float64) {
	if c == nil {
		return
	}
	c.addAt(t, v)
}

func (c *Counter) addAt(t, v float64) {
	c.total += v
	c.series.add(t, v)
	c.push("counter", t, c.total)
}

// IncAt is AddAt(t, 1).
func (c *Counter) IncAt(t float64) { c.AddAt(t, 1) }

// Value returns the accumulated total (0 for a nil counter).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.total
}

// Gauge records a last-written value plus the min/max it has seen.
type Gauge struct {
	inst
	v float64
	agg
}

// Set records v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.observe(v)
	g.v = v
	g.push("gauge", -1, v)
}

// Value returns the last-set value (0 for a nil or never-set gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Series is a time-bucketed sequence of observations. Buckets are dense
// from t=0; bucket i covers [i*width, (i+1)*width). Methods on a nil series
// are no-ops.
type Series struct {
	inst
	kind    string
	width   float64
	buckets []agg
}

// Observe records sample v at time t (sample semantics).
func (s *Series) Observe(t, v float64) {
	if s == nil {
		return
	}
	s.add(t, v)
}

func (s *Series) add(t, v float64) {
	if s == nil {
		return
	}
	if t < 0 {
		t = 0
	}
	idx := int(t / s.width)
	for idx >= len(s.buckets) {
		s.buckets = append(s.buckets, agg{})
	}
	s.buckets[idx].observe(v)
	s.push(s.kind, t, v)
}

// data exports the series' non-empty buckets.
func (s *Series) data() SeriesData {
	sd := SeriesData{Key: s.key, Kind: s.kind, Bucket: s.width}
	for i, b := range s.buckets {
		if b.count == 0 {
			continue
		}
		v := b.sum
		if s.kind == kindSample {
			v = b.sum / float64(b.count)
		}
		sd.Points = append(sd.Points, SeriesPoint{
			T: float64(i) * s.width, Value: v, Count: b.count, Min: b.min, Max: b.max,
		})
	}
	return sd
}

// Snapshot freezes the collector's state into a deterministic, exportable
// report fragment: instruments in Key order, series as non-empty buckets
// only. A nil collector snapshots to the zero Snapshot.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		Bucket: c.bucket,
		Counters: export(c.counters.list, func(x *Counter) (CounterPoint, bool) {
			return CounterPoint{Key: x.key, Value: x.total}, true
		}),
		Gauges: export(c.gauges.list, func(g *Gauge) (GaugePoint, bool) {
			return GaugePoint{Key: g.key, Value: g.v, Min: g.min, Max: g.max}, g.count > 0
		}),
		Series: export(c.series.list, func(s *Series) (SeriesData, bool) {
			return s.data(), len(s.buckets) > 0 // a bucket exists once one is observed
		}),
		Histograms: export(c.histograms.list, func(h *Histogram) (HistogramData, bool) {
			return h.data(), h.count > 0
		}),
	}
}

// export renders every instrument that has something to report, in Key
// order.
func export[P any, R interface{ id() Key }](list []P, render func(P) (R, bool)) []R {
	var out []R
	for _, p := range list {
		if r, ok := render(p); ok {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b R) int { return a.id().compare(b.id()) })
	return out
}
