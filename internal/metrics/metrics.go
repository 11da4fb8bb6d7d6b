// Package metrics is the cross-layer instrumentation bus of the MOON
// reproduction: typed counters, gauges and time-bucketed series keyed by
// (layer, name, scope), collected per simulation run and exportable as a
// schema-versioned run report.
//
// The design is allocation-conscious and strictly passive:
//
//   - Instruments are resolved once, at wiring time, into typed handles
//     (*Counter, *Gauge, *Series). The hot path is a field update behind a
//     nil check — a nil handle (no collector attached) is a no-op, so
//     instrumented code runs bit-identically and allocation-free whether or
//     not metrics are collected.
//   - Collection never touches model state, draws no randomness, and
//     schedules no simulation events, so enabling a collector cannot
//     perturb a run: profiles and run statistics are byte-identical with
//     metrics on or off (pinned by internal/harness/regression_test.go).
//   - Snapshots are deterministic: instruments are exported in sorted
//     (layer, name, scope) order regardless of registration order, and
//     series buckets are indexed by time, so equal runs produce equal
//     reports.
//
// A Collector is single-threaded, like the simulation it observes; in
// parallel sweeps every cell owns its own Collector and the harness merges
// the resulting Snapshots deterministically.
package metrics

import "sort"

// DefaultBucket is the default series bucket width in seconds: 300 s gives
// ~100 buckets over the paper's 8-hour trace horizon.
const DefaultBucket = 300

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
	Layer Layer
	Name  string
	Scope string
}

func (k Key) less(o Key) bool {
	if k.Layer != o.Layer {
		return k.Layer < o.Layer
	}
	if k.Name != o.Name {
		return k.Name < o.Name
	}
	return k.Scope < o.Scope
}

// Collector gathers one run's instruments. The zero value is not usable;
// create with New. A nil *Collector is a valid "collection off" value:
// every instrument it returns is nil, and nil instruments no-op.
type Collector struct {
	bucket float64
	sink   Sink // optional push sink (stream.go); nil = no streaming

	counters   []*Counter
	gauges     []*Gauge
	series     []*Series
	histograms []*Histogram

	cIndex map[Key]*Counter
	gIndex map[Key]*Gauge
	sIndex map[Key]*Series
	hIndex map[Key]*Histogram
}

// New returns an empty collector whose series use the given bucket width in
// seconds (<= 0 selects DefaultBucket).
func New(bucket float64) *Collector {
	if bucket <= 0 {
		bucket = DefaultBucket
	}
	return &Collector{
		bucket: bucket,
		cIndex: make(map[Key]*Counter),
		gIndex: make(map[Key]*Gauge),
		sIndex: make(map[Key]*Series),
		hIndex: make(map[Key]*Histogram),
	}
}

// Bucket returns the series bucket width in seconds (0 for a nil collector).
func (c *Collector) Bucket() float64 {
	if c == nil {
		return 0
	}
	return c.bucket
}

// Counter returns the counter registered under (layer, name, scope),
// creating it on first use. A nil collector returns a nil (no-op) counter.
func (c *Collector) Counter(layer Layer, name, scope string) *Counter {
	if c == nil {
		return nil
	}
	k := Key{Layer: layer, Name: name, Scope: scope}
	if ctr := c.cIndex[k]; ctr != nil {
		return ctr
	}
	ctr := &Counter{key: k, sink: c.sink}
	c.cIndex[k] = ctr
	c.counters = append(c.counters, ctr)
	return ctr
}

// TimedCounter returns a counter that also accumulates a rate series (same
// key) bucketed over time, so totals come with a timeline. A nil collector
// returns nil.
func (c *Collector) TimedCounter(layer Layer, name, scope string) *Counter {
	if c == nil {
		return nil
	}
	ctr := c.Counter(layer, name, scope)
	if ctr.series == nil {
		ctr.series = c.RateSeries(layer, name, scope)
	}
	return ctr
}

// Gauge returns the gauge registered under (layer, name, scope), creating
// it on first use. A nil collector returns a nil (no-op) gauge.
func (c *Collector) Gauge(layer Layer, name, scope string) *Gauge {
	if c == nil {
		return nil
	}
	k := Key{Layer: layer, Name: name, Scope: scope}
	if g := c.gIndex[k]; g != nil {
		return g
	}
	g := &Gauge{key: k, sink: c.sink}
	c.gIndex[k] = g
	c.gauges = append(c.gauges, g)
	return g
}

// RateSeries returns a time-bucketed series with sum semantics: Add(t, v)
// accumulates v into t's bucket, and the bucket's exported value is the
// sum (a per-bucket rate, e.g. bytes replicated per bucket).
func (c *Collector) RateSeries(layer Layer, name, scope string) *Series {
	return c.newSeries(layer, name, scope, KindRate)
}

// SampleSeries returns a time-bucketed series with sample semantics:
// Observe(t, v) records v in t's bucket, and the bucket's exported value is
// the mean of its observations (e.g. slot occupancy sampled per heartbeat).
func (c *Collector) SampleSeries(layer Layer, name, scope string) *Series {
	return c.newSeries(layer, name, scope, KindSample)
}

func (c *Collector) newSeries(layer Layer, name, scope, kind string) *Series {
	if c == nil {
		return nil
	}
	k := Key{Layer: layer, Name: name, Scope: scope}
	if s := c.sIndex[k]; s != nil {
		return s
	}
	s := &Series{key: k, kind: kind, width: c.bucket, sink: c.sink}
	c.sIndex[k] = s
	c.series = append(c.series, s)
	return s
}

// Series value semantics.
const (
	// KindRate buckets export the sum of added values.
	KindRate = "rate"
	// KindSample buckets export the mean of observed values.
	KindSample = "sample"
)

// Counter accumulates a monotonically growing total. Methods on a nil
// counter are no-ops, so instrumented code needs no "metrics enabled"
// branches of its own.
type Counter struct {
	key    Key
	total  float64
	series *Series // optional timeline (TimedCounter)
	sink   Sink
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
	if c.sink != nil {
		c.sink.Push(Update{Layer: c.key.Layer, Name: c.key.Name, Scope: c.key.Scope,
			Kind: "counter", Time: -1, Value: c.total})
	}
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
	if c.sink != nil {
		c.sink.Push(Update{Layer: c.key.Layer, Name: c.key.Name, Scope: c.key.Scope,
			Kind: "counter", Time: t, Value: c.total})
	}
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
	key      Key
	v        float64
	min, max float64
	set      bool
	sink     Sink
}

// Set records v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if !g.set {
		g.min, g.max = v, v
		g.set = true
	} else {
		if v < g.min {
			g.min = v
		}
		if v > g.max {
			g.max = v
		}
	}
	g.v = v
	if g.sink != nil {
		g.sink.Push(Update{Layer: g.key.Layer, Name: g.key.Name, Scope: g.key.Scope,
			Kind: "gauge", Time: -1, Value: v})
	}
}

// Value returns the last-set value (0 for a nil or never-set gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// bucketAgg aggregates one series bucket.
type bucketAgg struct {
	sum      float64
	count    int64
	min, max float64
}

// Series is a time-bucketed sequence of observations. Buckets are dense
// from t=0; bucket i covers [i*width, (i+1)*width). Methods on a nil series
// are no-ops.
type Series struct {
	key     Key
	kind    string
	width   float64
	buckets []bucketAgg
	sink    Sink
}

// Add accumulates v into the bucket of time t (rate semantics).
func (s *Series) Add(t, v float64) {
	if s == nil {
		return
	}
	s.add(t, v)
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
		s.buckets = append(s.buckets, bucketAgg{})
	}
	b := &s.buckets[idx]
	if b.count == 0 {
		b.min, b.max = v, v
	} else {
		if v < b.min {
			b.min = v
		}
		if v > b.max {
			b.max = v
		}
	}
	b.sum += v
	b.count++
	if s.sink != nil {
		s.sink.Push(Update{Layer: s.key.Layer, Name: s.key.Name, Scope: s.key.Scope,
			Kind: s.kind, Time: t, Value: v})
	}
}

// Snapshot freezes the collector's state into a deterministic, exportable
// report fragment: instruments sorted by (layer, name, scope), series as
// non-empty buckets only. A nil collector snapshots to the zero Snapshot.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	snap := Snapshot{Bucket: c.bucket}
	for _, ctr := range c.counters {
		snap.Counters = append(snap.Counters, CounterPoint{
			Layer: string(ctr.key.Layer), Name: ctr.key.Name, Scope: ctr.key.Scope,
			Value: ctr.total,
		})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].key().less(snap.Counters[j].key()) })
	for _, g := range c.gauges {
		if !g.set {
			continue
		}
		snap.Gauges = append(snap.Gauges, GaugePoint{
			Layer: string(g.key.Layer), Name: g.key.Name, Scope: g.key.Scope,
			Value: g.v, Min: g.min, Max: g.max,
		})
	}
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].key().less(snap.Gauges[j].key()) })
	for _, s := range c.series {
		sd := SeriesData{
			Layer: string(s.key.Layer), Name: s.key.Name, Scope: s.key.Scope,
			Kind: s.kind, Bucket: s.width,
		}
		for i, b := range s.buckets {
			if b.count == 0 {
				continue
			}
			v := b.sum
			if s.kind == KindSample {
				v = b.sum / float64(b.count)
			}
			sd.Points = append(sd.Points, SeriesPoint{
				T: float64(i) * s.width, Value: v, Count: b.count, Min: b.min, Max: b.max,
			})
		}
		if len(sd.Points) == 0 {
			continue
		}
		snap.Series = append(snap.Series, sd)
	}
	sort.Slice(snap.Series, func(i, j int) bool { return snap.Series[i].key().less(snap.Series[j].key()) })
	for _, h := range c.histograms {
		if h.count == 0 {
			continue
		}
		hd := HistogramData{
			Layer: string(h.key.Layer), Name: h.key.Name, Scope: h.key.Scope,
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		}
		for i, n := range h.counts {
			if n == 0 {
				continue
			}
			ub := histBounds[HistBuckets-1] // overflow reports the last bound
			if i < HistBuckets {
				ub = histBounds[i]
			}
			hd.Buckets = append(hd.Buckets, HistogramBucket{
				UpperBound: ub, Overflow: i == HistBuckets, Count: n,
			})
		}
		snap.Histograms = append(snap.Histograms, hd)
	}
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].key().less(snap.Histograms[j].key()) })
	return snap
}
