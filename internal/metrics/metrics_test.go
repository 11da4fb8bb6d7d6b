package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestNilHandlesAreNoOps holds the metrics-off contract: a nil Collector
// hands out nil handles, and every exported method of every handle type,
// called on a nil receiver, neither panics nor allocates. That is what
// lets instrumented hot paths run bit-identically and at 0 allocs/op with
// collection off. Each row calls one method on a nil receiver and reports
// whether the result is the no-op one (a nil handle, a zero value).
// Reflection over the method sets keeps the table complete: a method
// without a row fails, and so does a row without a method.
func TestNilHandlesAreNoOps(t *testing.T) {
	var (
		c   *Collector
		ctr *Counter
		g   *Gauge
		s   *Series
		h   *Histogram
	)
	rows := []struct {
		method string
		call   func() bool
	}{
		{"Collector.Counter", func() bool { return c.Counter(LayerSim, "x", "") == nil }},
		{"Collector.TimedCounter", func() bool { return c.TimedCounter(LayerSim, "x", "") == nil }},
		{"Collector.Gauge", func() bool { return c.Gauge(LayerSim, "x", "") == nil }},
		{"Collector.SampleSeries", func() bool { return c.SampleSeries(LayerSim, "x", "") == nil }},
		{"Collector.Histogram", func() bool { return c.Histogram(LayerSim, "x", "") == nil }},
		{"Collector.Snapshot", func() bool { return empty(c.Snapshot()) }},
		{"Collector.SetSink", func() bool { c.SetSink(nil); return true }},
		{"Counter.Inc", func() bool { ctr.Inc(); return true }},
		{"Counter.Add", func() bool { ctr.Add(2); return true }},
		{"Counter.AddAt", func() bool { ctr.AddAt(10, 5); return true }},
		{"Counter.IncAt", func() bool { ctr.IncAt(10); return true }},
		{"Counter.Value", func() bool { return ctr.Value() == 0 }},
		{"Gauge.Set", func() bool { g.Set(3); return true }},
		{"Gauge.Value", func() bool { return g.Value() == 0 }},
		{"Series.Observe", func() bool { s.Observe(1, 2); return true }},
		{"Histogram.Observe", func() bool { h.Observe(1); return true }},
	}

	methods := make(map[string]bool)
	for _, handle := range []any{c, ctr, g, s, h} {
		typ := reflect.TypeOf(handle)
		for i := 0; i < typ.NumMethod(); i++ {
			methods[typ.Elem().Name()+"."+typ.Method(i).Name] = true
		}
	}
	for _, r := range rows {
		if !methods[r.method] {
			t.Errorf("row %s has no method", r.method)
			continue
		}
		delete(methods, r.method)
		ok, panicked := callNil(r.call)
		if panicked != nil {
			t.Errorf("%s on nil panics: %v", r.method, panicked)
			continue
		}
		if !ok {
			t.Errorf("%s on nil is not a no-op", r.method)
		}
		if allocs := testing.AllocsPerRun(10, func() { r.call() }); allocs != 0 {
			t.Errorf("%s on nil allocates %v times", r.method, allocs)
		}
	}
	for m := range methods {
		t.Errorf("exported method %s has no nil-receiver row", m)
	}
}

// empty reports whether s is the zero Snapshot.
func empty(s Snapshot) bool {
	return s.Bucket == 0 && s.Counters == nil && s.Gauges == nil && s.Series == nil && s.Histograms == nil
}

// callNil runs one row of TestNilHandlesAreNoOps, recovering a panic.
func callNil(call func() bool) (ok bool, panicked any) {
	defer func() { panicked = recover() }()
	return call(), nil
}

func TestNilCollectorAndInstrumentsAreNoOps(t *testing.T) {
	var c *Collector
	ctr := c.TimedCounter(LayerSim, "x", "")
	g := c.Gauge(LayerSim, "y", "")
	s := c.SampleSeries(LayerSim, "z", "")
	ctr.Inc()
	ctr.AddAt(10, 5)
	g.Set(3)
	s.Observe(1, 2)
	if v := ctr.Value(); v != 0 {
		t.Fatalf("nil counter value %v", v)
	}
	if v := g.Value(); v != 0 {
		t.Fatalf("nil gauge value %v", v)
	}
	if !empty(c.Snapshot()) {
		t.Fatal("nil collector snapshot not empty")
	}
}

func TestInstrumentsAreIdempotentPerKey(t *testing.T) {
	c := New(60)
	a := c.Counter(LayerDFS, "bytes", "")
	b := c.Counter(LayerDFS, "bytes", "")
	if a != b {
		t.Fatal("same key resolved to distinct counters")
	}
	if c.SampleSeries(LayerDFS, "bytes", "") != c.SampleSeries(LayerDFS, "bytes", "") {
		t.Fatal("same key resolved to distinct series")
	}
	a.Add(2)
	b.Add(3)
	if got := a.Value(); got != 5 {
		t.Fatalf("shared counter total %v, want 5", got)
	}
}

func TestSnapshotDeterministicAcrossRegistrationOrder(t *testing.T) {
	build := func(names []string) Snapshot {
		c := New(100)
		for _, n := range names {
			c.Counter(LayerMapred, n, "").Add(float64(len(n)))
			c.Gauge(LayerCluster, n, "").Set(1)
			c.SampleSeries(LayerSim, n, "").Observe(50, 2)
		}
		return c.Snapshot()
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ by registration order:\n%+v\n%+v", a, b)
	}
}

func TestSeriesBucketing(t *testing.T) {
	c := New(100)
	rate := c.TimedCounter(LayerDFS, "rep_bytes", "")
	rate.AddAt(10, 5)
	rate.AddAt(90, 7)
	rate.AddAt(250, 1)
	sample := c.SampleSeries(LayerMapred, "occ", "")
	sample.Observe(10, 0.5)
	sample.Observe(20, 1.5)

	snap := c.Snapshot()
	if len(snap.Series) != 2 {
		t.Fatalf("series count %d", len(snap.Series))
	}
	var rep, occ SeriesData
	for _, sd := range snap.Series {
		switch sd.Name {
		case "rep_bytes":
			rep = sd
		case "occ":
			occ = sd
		}
	}
	if len(rep.Points) != 2 || rep.Points[0].T != 0 || rep.Points[0].Value != 12 ||
		rep.Points[1].T != 200 || rep.Points[1].Value != 1 {
		t.Fatalf("rate series points %+v", rep.Points)
	}
	if len(occ.Points) != 1 || occ.Points[0].Value != 1.0 || occ.Points[0].Count != 2 {
		t.Fatalf("sample series points %+v", occ.Points)
	}
	if occ.Points[0].Min != 0.5 || occ.Points[0].Max != 1.5 {
		t.Fatalf("sample min/max %+v", occ.Points[0])
	}
}

// TestSeriesStoresOnlyWrittenBuckets: a series keeps one bucket per bucket
// written, not one per width since t = 0, so a day idle at 1 s buckets
// costs nothing (the dense layout kept 86 401). An earlier write lands in
// its own bucket, in time order, or in the one it belongs to.
func TestSeriesStoresOnlyWrittenBuckets(t *testing.T) {
	c := New(1)
	s := c.SampleSeries(LayerMapred, "occ", "")
	points := func(want int) []SeriesPoint {
		t.Helper()
		if len(s.buckets) != want {
			t.Fatalf("%d buckets stored, want %d", len(s.buckets), want)
		}
		return c.Snapshot().Series[0].Points
	}
	s.Observe(0, 1)
	s.Observe(86400.5, 3)
	if got, want := points(2), []SeriesPoint{{T: 0, Value: 1, Count: 1, Min: 1, Max: 1},
		{T: 86400, Value: 3, Count: 1, Min: 3, Max: 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("points %+v, want %+v", got, want)
	}
	s.Observe(86400, 5) // the last bucket
	s.Observe(500, 2)   // out of order, a bucket of its own
	s.Observe(0.5, 3)   // out of order, into the first bucket
	if got, want := points(3), []SeriesPoint{{T: 0, Value: 2, Count: 2, Min: 1, Max: 3},
		{T: 500, Value: 2, Count: 1, Min: 2, Max: 2},
		{T: 86400, Value: 4, Count: 2, Min: 3, Max: 5}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("points %+v, want %+v", got, want)
	}
}

func TestTimedCounterFeedsSeries(t *testing.T) {
	c := New(100)
	ctr := c.TimedCounter(LayerSim, "fired", "")
	ctr.IncAt(10)
	ctr.IncAt(150)
	ctr.Add(5) // untimed: total only
	snap := c.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Fatalf("counters %+v", snap.Counters)
	}
	if len(snap.Series) != 1 || len(snap.Series[0].Points) != 2 {
		t.Fatalf("series %+v", snap.Series)
	}
}

// TestMergeAveragesAcrossRuns: each row merges a few runs' snapshots and
// checks one rule of Merge. The last three are cases the pinned reports
// reach none of.
func TestMergeAveragesAcrossRuns(t *testing.T) {
	run := func(record func(c *Collector)) Snapshot {
		c := New(100)
		record(c)
		return c.Snapshot()
	}
	avg := func(v float64) Snapshot {
		return run(func(c *Collector) {
			c.Counter(LayerDFS, "n", "").Add(v)
			c.Gauge(LayerCluster, "g", "").Set(v)
			c.TimedCounter(LayerSim, "s", "").AddAt(50, v)
		})
	}
	hist := func(v float64) Snapshot {
		return run(func(c *Collector) { c.Histogram(LayerEngine, "h", "").Observe(v) })
	}
	last := histBounds[histBuckets-1]
	rows := []struct {
		name string
		runs []Snapshot
		want string // the merged snapshot, %+v
		got  func(m Snapshot) any
	}{
		{"counters, gauges and rate buckets average", []Snapshot{avg(2), avg(4)},
			"[[{Key:{Layer:dfs Name:n Scope:} Value:3} {Key:{Layer:sim Name:s Scope:} Value:3}] " +
				"[{Key:{Layer:cluster Name:g Scope:} Value:3 Min:2 Max:4}] [{T:0 Value:3 Count:2 Min:2 Max:4}]]",
			func(m Snapshot) any { return []any{m.Counters, m.Gauges, m.Series[0].Points} }},
		{"an instrument absent from a run averages against 0", []Snapshot{
			run(func(c *Collector) { c.Counter(LayerDFS, "only", "").Add(6) }), {Bucket: 100}},
			"[{Key:{Layer:dfs Name:only Scope:} Value:3}]",
			func(m Snapshot) any { return m.Counters }},
		{"a sample bucket averages the runs' means", []Snapshot{
			run(func(c *Collector) { s := c.SampleSeries(LayerMapred, "occ", ""); s.Observe(0, 1); s.Observe(0, 3) }),
			run(func(c *Collector) { c.SampleSeries(LayerMapred, "occ", "").Observe(0, 10) })},
			"[{T:0 Value:6 Count:3 Min:1 Max:10}]",
			func(m Snapshot) any { return m.Series[0].Points }},
		{"an instrument missing from the first run lands in key order", []Snapshot{
			run(func(c *Collector) { c.Counter(LayerDFS, "b", "").Add(2) }),
			run(func(c *Collector) { c.Counter(LayerDFS, "a", "").Add(4); c.Counter(LayerDFS, "b", "").Add(2) })},
			"[{Key:{Layer:dfs Name:a Scope:} Value:2} {Key:{Layer:dfs Name:b Scope:} Value:2}]",
			func(m Snapshot) any { return m.Counters }},
		{"the last bounded bucket and the overflow stay apart, overflow last", []Snapshot{hist(1e12), hist(1e9)},
			fmt.Sprintf("[{UpperBound:%v Overflow:false Count:1} {UpperBound:%v Overflow:true Count:1}]", last, last),
			func(m Snapshot) any { return m.Histograms[0].Buckets }},
	}
	for _, r := range rows {
		if got := fmt.Sprintf("%+v", r.got(Merge(r.runs))); got != r.want {
			t.Errorf("%s:\n got %s\nwant %s", r.name, got, r.want)
		}
	}
}

func TestExportSchemaAndCSV(t *testing.T) {
	c := New(100)
	c.TimedCounter(LayerDFS, "rep_bytes", "").AddAt(10, 100)
	e := NewExport("test")
	e.Add("fig4", "MOON", 0.3, 2, c.Snapshot())

	var buf bytes.Buffer
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["schema"] != Schema {
		t.Fatalf("schema %v, want %v", decoded["schema"], Schema)
	}

	var csv bytes.Buffer
	if err := e.WriteTimelineCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines %d: %q", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "experiment,variant,rate,layer,name") {
		t.Fatalf("csv header %q", lines[0])
	}
	if !strings.Contains(lines[1], `"fig4","MOON",0.3,dfs,rep_bytes`) {
		t.Fatalf("csv row %q", lines[1])
	}
}
