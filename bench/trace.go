package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one interval at a boundary the runner crosses. Parent is the
// index of the enclosing span in the same tracer (-1 for a root); Op is
// the identifier every span of one operation shares.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Op         int
}

// tracer keeps spans in a preallocated slice and writes them out when the
// run ends. It is used from one goroutine; concurrent generators each own
// one and the results are merged. A nil tracer records nothing, which is
// the --trace 0 path.
type tracer struct {
	epoch   time.Time
	tid     int
	spans   []span
	dropped int
}

func newTracer(epoch time.Time, tid, capacity int) *tracer {
	return &tracer{epoch: epoch, tid: tid, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 when not recording). Spans
// beyond the preallocated capacity are dropped and counted, never grown
// into: an allocation in the timed path would be the tracer's own noise.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.epoch)
}

// selfTimes returns, per span, its duration minus the part of it its
// direct children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range ks {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfSummary is self time per span name, largest first, as one line: where
// the time went at the boundaries the runner crosses.
func selfSummary(spans []span) string {
	byName := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		byName[spans[i].Name] += d
	}
	names := sortedKeys(byName)
	sort.SliceStable(names, func(a, b int) bool { return byName[names[a]] > byName[names[b]] })
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("%s %.0f ms", n, ms(byName[n])))
	}
	return strings.Join(out, ", ")
}

// durationsMS lists the durations of every span called name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// writeChromeTrace writes the tracers' spans as Chrome trace-event JSON
// (complete "X" events; load in chrome://tracing or Perfetto).
func writeChromeTrace(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for _, t := range tracers {
		if t == nil {
			continue
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"op":%d,"self_us":%.3f}}`,
				s.Name, t.tid, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, i, s.Parent, s.Op, float64(self[i])/1e3)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
