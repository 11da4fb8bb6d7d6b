package metrics

import (
	"sync"
	"sync/atomic"
)

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
	Layer Layer  `json:"layer"`
	Name  string `json:"name"`
	Scope string `json:"scope,omitempty"`
	// Kind is "counter", "gauge", "histogram", or the series kind
	// (KindRate / KindSample).
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
	for _, ctr := range c.counters {
		ctr.sink = sink
	}
	for _, g := range c.gauges {
		g.sink = sink
	}
	for _, s := range c.series {
		s.sink = sink
	}
	for _, h := range c.histograms {
		h.sink = sink
	}
}

// StreamSink is a channel-backed Sink for live subscribers. Pushes are
// non-blocking: when the buffer is full the update is dropped and counted,
// so a stalled reader can never back-pressure the run. Close the sink when
// the consumer is done; pushes after Close are dropped.
type StreamSink struct {
	mu      sync.RWMutex
	ch      chan Update
	closed  bool
	dropped atomic.Uint64
}

// NewStreamSink returns a sink buffering up to size updates.
func NewStreamSink(size int) *StreamSink {
	return &StreamSink{ch: make(chan Update, size)}
}

// Push enqueues the update, dropping it if the buffer is full or the sink
// is closed. Safe for concurrent use and never blocks.
func (s *StreamSink) Push(u Update) {
	if s == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.dropped.Add(1)
		return
	}
	select {
	case s.ch <- u:
	default:
		s.dropped.Add(1)
	}
}

// Updates is the consumer side. The channel is closed by Close once no
// in-flight Push can still be delivering, so ranging over it is safe.
// A nil sink returns a nil channel (which never delivers), keeping the
// whole handle surface nil-safe.
func (s *StreamSink) Updates() <-chan Update {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped reports how many updates were discarded because the buffer was
// full or the sink closed (0 for a nil sink).
func (s *StreamSink) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close marks the sink closed (subsequent pushes drop) and closes the
// Updates channel after any in-flight Push completes. Idempotent.
func (s *StreamSink) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}
