package metrics

import (
	"bytes"
	"encoding/json"
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
		{"Collector.Bucket", func() bool { return c.Bucket() == 0 }},
		{"Collector.Counter", func() bool { return c.Counter(LayerSim, "x", "") == nil }},
		{"Collector.TimedCounter", func() bool { return c.TimedCounter(LayerSim, "x", "") == nil }},
		{"Collector.Gauge", func() bool { return c.Gauge(LayerSim, "x", "") == nil }},
		{"Collector.RateSeries", func() bool { return c.RateSeries(LayerSim, "x", "") == nil }},
		{"Collector.SampleSeries", func() bool { return c.SampleSeries(LayerSim, "x", "") == nil }},
		{"Collector.Histogram", func() bool { return c.Histogram(LayerSim, "x", "") == nil }},
		{"Collector.Snapshot", func() bool { return c.Snapshot().Empty() }},
		{"Collector.SetSink", func() bool { c.SetSink(nil); return true }},
		{"Counter.Inc", func() bool { ctr.Inc(); return true }},
		{"Counter.Add", func() bool { ctr.Add(2); return true }},
		{"Counter.AddAt", func() bool { ctr.AddAt(10, 5); return true }},
		{"Counter.IncAt", func() bool { ctr.IncAt(10); return true }},
		{"Counter.Value", func() bool { return ctr.Value() == 0 }},
		{"Gauge.Set", func() bool { g.Set(3); return true }},
		{"Gauge.Value", func() bool { return g.Value() == 0 }},
		{"Series.Add", func() bool { s.Add(1, 2); return true }},
		{"Series.Observe", func() bool { s.Observe(1, 2); return true }},
		{"Histogram.Observe", func() bool { h.Observe(1); return true }},
		{"Histogram.Count", func() bool { return h.Count() == 0 }},
		{"Histogram.Sum", func() bool { return h.Sum() == 0 }},
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
	if !c.Snapshot().Empty() {
		t.Fatal("nil collector snapshot not empty")
	}
	if c.Bucket() != 0 {
		t.Fatal("nil collector bucket")
	}
}

func TestInstrumentsAreIdempotentPerKey(t *testing.T) {
	c := New(60)
	a := c.Counter(LayerDFS, "bytes", "")
	b := c.Counter(LayerDFS, "bytes", "")
	if a != b {
		t.Fatal("same key resolved to distinct counters")
	}
	if c.RateSeries(LayerDFS, "bytes", "") != c.RateSeries(LayerDFS, "bytes", "") {
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
	rate := c.RateSeries(LayerDFS, "rep_bytes", "")
	rate.Add(10, 5)
	rate.Add(90, 7)
	rate.Add(250, 1)
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

func TestMergeAveragesAcrossRuns(t *testing.T) {
	run := func(v float64) Snapshot {
		c := New(100)
		c.Counter(LayerDFS, "n", "").Add(v)
		c.Gauge(LayerCluster, "g", "").Set(v)
		c.RateSeries(LayerSim, "s", "").Add(50, v)
		return c.Snapshot()
	}
	m := Merge([]Snapshot{run(2), run(4)})
	if m.Counters[0].Value != 3 {
		t.Fatalf("merged counter %v, want 3", m.Counters[0].Value)
	}
	if m.Gauges[0].Value != 3 || m.Gauges[0].Min != 2 || m.Gauges[0].Max != 4 {
		t.Fatalf("merged gauge %+v", m.Gauges[0])
	}
	if m.Series[0].Points[0].Value != 3 || m.Series[0].Points[0].Count != 2 {
		t.Fatalf("merged series %+v", m.Series[0].Points[0])
	}
	// An instrument absent from one run averages against 0.
	c := New(100)
	c.Counter(LayerDFS, "only", "").Add(6)
	m = Merge([]Snapshot{c.Snapshot(), {Bucket: 100}})
	if m.Counters[0].Value != 3 {
		t.Fatalf("partial merge counter %v, want 3", m.Counters[0].Value)
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
