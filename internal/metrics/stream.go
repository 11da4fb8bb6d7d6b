package metrics

// Streaming sink: the push half of the metrics bus. A Collector stays
// strictly passive and single-threaded, but it can optionally be wired to a
// Sink that observes every instrument write as it happens. This is how the
// long-running service streams live instrument updates to /v1/events
// subscribers while a run is in flight, without changing anything about
// what the collector records: with a nil sink every push site reduces to
// one predictable nil-check branch, snapshots are byte-identical, and the
// metrics-off path (nil collector, nil handles) is untouched.

// Update is one pushed instrument write.
type Update struct {
	Key
	// Kind is "counter", "gauge", "histogram", or the series kind
	// ("rate" for a TimedCounter's timeline, "sample").
	Kind string `json:"kind"`
	// Time is the instrument timestamp in simulated/run seconds, or -1
	// for untimed writes (plain counter adds, gauge sets, histogram
	// observations).
	Time float64 `json:"t"`
	// Value is the written value: the running total for counters, the
	// set value for gauges, the observation for series and histograms.
	Value float64 `json:"value"`
}

// Sink receives instrument updates. Push must be safe for concurrent use:
// a single sink may be shared by many collectors (one per live cell or
// per service run) pushing from their own goroutines, and it must never
// block — a slow consumer must not stall the run being observed.
type Sink interface {
	Push(Update)
}

// SetSink wires a sink into the collector: every subsequent instrument
// write is pushed to it, including writes through instruments created
// before the call. A nil sink detaches. Nil collectors ignore the call.
func (c *Collector) SetSink(sink Sink) {
	if c == nil {
		return
	}
	c.sink = sink
	c.counters.setSink(sink)
	c.gauges.setSink(sink)
	c.series.setSink(sink)
	c.histograms.setSink(sink)
}
