package metrics

import (
	"reflect"
	"testing"
)

// recSink records pushes synchronously (test-local, single-threaded use).
type recSink struct{ ups []Update }

func (r *recSink) Push(u Update) { r.ups = append(r.ups, u) }

func TestSinkReceivesEveryInstrumentKind(t *testing.T) {
	c := New(10)
	pre := c.Counter(LayerEngine, "pre", "") // created before SetSink
	sink := &recSink{}
	c.SetSink(sink)

	pre.Add(2)
	c.Counter(LayerEngine, "jobs", "j1").IncAt(3)
	c.Gauge(LayerCluster, "nodes", "").Set(7)
	c.RateSeries(LayerNet, "bytes", "").Add(12, 100)
	c.Histogram(LayerMapred, "task", "").Observe(0.5)

	want := []Update{
		{Layer: LayerEngine, Name: "pre", Kind: "counter", Time: -1, Value: 2},
		{Layer: LayerEngine, Name: "jobs", Scope: "j1", Kind: "counter", Time: 3, Value: 1},
		{Layer: LayerCluster, Name: "nodes", Kind: "gauge", Time: -1, Value: 7},
		{Layer: LayerNet, Name: "bytes", Kind: KindRate, Time: 12, Value: 100},
		{Layer: LayerMapred, Name: "task", Kind: "histogram", Time: -1, Value: 0.5},
	}
	if len(sink.ups) != len(want) {
		t.Fatalf("got %d updates, want %d: %+v", len(sink.ups), len(want), sink.ups)
	}
	for i, u := range sink.ups {
		if u != want[i] {
			t.Errorf("update %d: got %+v, want %+v", i, u, want[i])
		}
	}
}

func TestSinkDoesNotChangeSnapshot(t *testing.T) {
	run := func(sink Sink) Snapshot {
		c := New(10)
		c.SetSink(sink)
		c.TimedCounter(LayerEngine, "done", "").IncAt(5)
		c.Gauge(LayerCluster, "nodes", "").Set(3)
		c.Histogram(LayerMapred, "task", "").Observe(1.5)
		return c.Snapshot()
	}
	plain, streamed := run(nil), run(&recSink{})
	if !reflect.DeepEqual(plain, streamed) {
		t.Fatalf("snapshot changed by sink:\nplain    %+v\nstreamed %+v", plain, streamed)
	}
}
