package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scheduleTransitions is up-front scheduling, the replay the cursor
// replaced: every suspend and resume of the node's trace queued at once, two
// closures an outage. It is the reference FuzzChurnCursorVsUpfront holds New
// to.
func (n *Node) scheduleTransitions() {
	if n.Type == Dedicated || len(n.trace.Outages) == 0 {
		return
	}
	for _, iv := range n.trace.Outages {
		iv := iv
		n.sim.Schedule(iv.Start, "node.suspend", func() { n.setAvailable(false) })
		n.sim.Schedule(iv.End, "node.resume", func() { n.setAvailable(true) })
	}
}

// newUpfront is New with every transition queued at once.
func newUpfront(s *sim.Simulation, cfg Config) *Cluster {
	c := build(s, cfg)
	for _, n := range c.Volatile {
		n.scheduleTransitions()
	}
	return c
}

// churnProgram is one fuzz input, decoded: a fleet of hand-built traces on a
// one-second grid, a stop part way through the run, and probe events on a
// half-second grid, so that they land on transition instants and between
// them.
type churnProgram struct {
	// allVolatile builds the fleet with NewAllVolatile, the last extra traces
	// as its extraTraces; otherwise New gets extra dedicated nodes.
	allVolatile bool
	extra       int
	nodes       []churnNode
	stop        int // the RunUntil before the final Run, in half-seconds
	probes      []churnProbe
}

type churnNode struct {
	// outages are (gap after the previous outage's end, length) pairs, in
	// seconds: a gap of 0 touches the previous outage (or starts at t = 0),
	// a length of 0 is a zero-length outage.
	outages [][2]int
	// watch > 0 has the node's first watcher schedule a probe (watch-1)/2 s
	// after each suspension, as the DFS and the JobTracker schedule timers
	// from theirs.
	watch int
}

type churnProbe struct {
	at     int  // half-seconds
	before bool // scheduled before the cluster is built, not after
	child  int  // > 0: when it fires, it schedules a probe (child-1)/2 s later
}

const (
	churnMaxOutages  = 5
	churnGrid        = 6 // gaps and lengths are 0..5 s
	churnWatchKinds  = 5
	churnMaxProbes   = 32
	churnProbeGrid   = 128 // probe and stop times are 0..63.5 s
	churnChildKinds  = 17
	churnMaxProgram  = 1 << 10
	churnCorpusDir   = "testdata/fuzz/FuzzChurnCursorVsUpfront"
	churnCorpusWrite = "MOON_WRITE_CHURN_CORPUS"
)

// decodeChurnProgram reads, byte by byte (a missing byte reads as 0): the
// shape (bit 7 allVolatile, bits 3-4 extra, bits 0-2 node count), the stop,
// then per node a header (outage count + churnMaxOutages+1 × watch) and a gap
// and a length per outage, then probes as (time + 128 × before, child) pairs
// to the end of the input.
func decodeChurnProgram(b []byte) *churnProgram {
	b = b[:min(len(b), churnMaxProgram)]
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	shape := next()
	p := &churnProgram{allVolatile: shape&0x80 != 0, extra: shape >> 3 & 3, stop: next() % churnProbeGrid}
	p.nodes = make([]churnNode, shape&7)
	if p.allVolatile {
		p.extra = min(p.extra, len(p.nodes))
	}
	for i := range p.nodes {
		h := next()
		k := h % (churnMaxOutages + 1)
		p.nodes[i].watch = h / (churnMaxOutages + 1) % churnWatchKinds
		for range k {
			p.nodes[i].outages = append(p.nodes[i].outages, [2]int{next() % churnGrid, next() % churnGrid})
		}
	}
	for len(b) > 0 && len(p.probes) < churnMaxProbes {
		at := next()
		p.probes = append(p.probes, churnProbe{at: at & 0x7f, before: at&0x80 != 0, child: next() % churnChildKinds})
	}
	return p
}

// bytes encodes p so that decodeChurnProgram gives p back.
func (p *churnProgram) bytes() []byte {
	shape := len(p.nodes) | p.extra<<3
	if p.allVolatile {
		shape |= 0x80
	}
	out := []byte{byte(shape), byte(p.stop)}
	for _, n := range p.nodes {
		out = append(out, byte(len(n.outages)+(churnMaxOutages+1)*n.watch))
		for _, o := range n.outages {
			out = append(out, byte(o[0]), byte(o[1]))
		}
	}
	for _, pr := range p.probes {
		at := pr.at
		if pr.before {
			at |= 0x80
		}
		out = append(out, byte(at), byte(pr.child))
	}
	return out
}

// traces lays the nodes' outages out on the time line.
func (p *churnProgram) traces() []trace.Trace {
	out := make([]trace.Trace, len(p.nodes))
	for i, n := range p.nodes {
		end := 0
		for _, o := range n.outages {
			start := end + o[0]
			end = start + o[1]
			out[i].Outages = append(out[i].Outages, trace.Interval{Start: float64(start), End: float64(end)})
		}
		out[i].Duration = float64(end + 1)
	}
	return out
}

func half(x int) float64 { return float64(x) / 2 }

// run builds the program's cluster, with the cursor or (upfront) with every
// transition queued at once, runs it to the stop and then to the end, and
// returns what every watcher and probe saw, in the order they ran.
func (p *churnProgram) run(upfront bool) []string {
	s := sim.New()
	var c *Cluster
	var log []string
	var probe func(label string, child int) func()
	probe = func(label string, child int) func() {
		return func() {
			var up strings.Builder
			for _, n := range c.Nodes {
				up.WriteByte("01"[b2i(n.Available())])
			}
			log = append(log, fmt.Sprintf("%v probe %s: up %s count %d frac %v", s.Now(), label, up.String(),
				c.AvailableCount(), c.VolatileUnavailableFraction()))
			if child > 0 {
				s.After(half(child-1), "probe", probe(label+".child", 0))
			}
		}
	}
	for i, pr := range p.probes {
		if pr.before {
			s.Schedule(half(pr.at), "probe", probe(fmt.Sprint(i), pr.child))
		}
	}
	traces := p.traces()
	switch {
	case upfront && p.allVolatile:
		c = newUpfront(s, Config{VolatileTraces: traces})
	case upfront:
		c = newUpfront(s, Config{VolatileTraces: traces, DedicatedNodes: p.extra})
	case p.allVolatile:
		v := len(traces) - p.extra
		c = NewAllVolatile(s, traces[:v], traces[v:])
	default:
		c = New(s, Config{VolatileTraces: traces, DedicatedNodes: p.extra})
	}
	for i, pr := range p.probes {
		if !pr.before {
			s.Schedule(half(pr.at), "probe", probe(fmt.Sprint(i), pr.child))
		}
	}
	for _, n := range c.Nodes {
		watch := 0
		if n.ID < len(p.nodes) {
			watch = p.nodes[n.ID].watch
		}
		for w := range 2 {
			n.Watch(func(n *Node, up bool) {
				log = append(log, fmt.Sprintf("%v node %d watcher %d: up %v available %v count %d frac %v suspensions %d down %v",
					s.Now(), n.ID, w, up, n.Available(), c.AvailableCount(), c.VolatileUnavailableFraction(),
					n.Suspensions(), n.DownTime()))
				if w == 0 && !up && watch > 0 {
					s.After(half(watch-1), "probe", probe(fmt.Sprintf("node%d", n.ID), 0))
				}
			})
		}
	}
	s.RunUntil(half(p.stop))
	log = append(log, fmt.Sprintf("stop at %v: fired %d canceled %d", s.Now(), s.Fired(), s.Canceled()))
	s.Run()
	return append(log, fmt.Sprintf("end at %v: fired %d canceled %d", s.Now(), s.Fired(), s.Canceled()))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareChurn runs p both ways and fails on the first line they differ in.
func compareChurn(t *testing.T, p *churnProgram) {
	t.Helper()
	got, want := p.run(false), p.run(true)
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("cursor and up-front scheduling part at line %d of %d/%d:\ncursor:   %s\nup front: %s\nprogram %+v",
				i, len(got), len(want), logLine(got, i), logLine(want, i), *p)
		}
	}
}

func logLine(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(end of log)"
}

// FuzzChurnCursorVsUpfront decodes the input into a fleet of hand-built
// traces — outages at t = 0, touching and zero-length outages, nodes with no
// outage, dedicated nodes or NewAllVolatile's extra traces — plus probe
// events scheduled before the cluster is built and after it, on transition
// instants and between them, some scheduling a probe of their own when they
// fire and some scheduled by a watcher at a suspension. It runs the program
// with the cursor and with every transition queued up front, and both must
// log the same (time, node, watcher or probe, Available, AvailableCount)
// sequence, watcher by watcher, and fire and cancel the same number of
// events, at a stop part way through and at the end.
func FuzzChurnCursorVsUpfront(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		compareChurn(t, decodeChurnProgram(b))
	})
}

// churnSeeds is the checked-in corpus, as programs: the files under
// churnCorpusDir hold their bytes() (TestChurnCorpus compares).
var churnSeeds = map[string]*churnProgram{
	// Node 0 starts inside an outage (its suspension at t = 0 changes
	// nothing); probes at 0 before and after the cluster is built see it.
	"outage-at-zero": {nodes: []churnNode{{outages: [][2]int{{0, 3}, {2, 1}}}, {outages: [][2]int{{0, 0}, {1, 2}}}},
		stop: 4, probes: []churnProbe{{at: 0, before: true}, {at: 0}, {at: 6, child: 1}}},
	// End == next Start: a resume and a suspension at one instant, in that
	// order, on two nodes at the same instants.
	"touching-outages": {nodes: []churnNode{{outages: [][2]int{{1, 2}, {0, 2}, {0, 1}}, watch: 1},
		{outages: [][2]int{{3, 2}, {0, 1}}}}, stop: 7,
		probes: []churnProbe{{at: 6, before: true, child: 1}, {at: 6}, {at: 7}, {at: 10, child: 2}}},
	// Zero-length outages, two at one instant, and one at the instant the
	// previous outage ends.
	"zero-length-outages": {nodes: []churnNode{{outages: [][2]int{{2, 0}, {0, 0}, {1, 3}, {0, 0}}, watch: 1}},
		stop: 12, probes: []churnProbe{{at: 4, before: true}, {at: 4}, {at: 12, child: 1}}},
	// Nodes with no outages between churned ones, and three dedicated nodes
	// after them.
	"dedicated-tail-and-idle-nodes": {extra: 3, nodes: []churnNode{{}, {outages: [][2]int{{1, 4}, {2, 2}}, watch: 3}, {},
		{outages: [][2]int{{1, 1}, {4, 5}}}}, stop: 20,
		probes: []churnProbe{{at: 2, before: true}, {at: 3, child: 4}, {at: 14}, {at: 30, before: true}}},
	// NewAllVolatile: the would-be dedicated machines churn too.
	"all-volatile": {allVolatile: true, extra: 2, nodes: []churnNode{{outages: [][2]int{{1, 2}}},
		{outages: [][2]int{{0, 1}, {1, 1}}, watch: 2}, {outages: [][2]int{{1, 2}, {0, 0}}}, {}}, stop: 3,
		probes: []churnProbe{{at: 2, before: true}, {at: 2}, {at: 5, child: 1}}},
	// A busy fleet: every node churns on the same few instants, watchers and
	// probes schedule at them, and the stop falls between two of them.
	"same-instant-fleet": {extra: 1, nodes: []churnNode{
		{outages: [][2]int{{1, 1}, {1, 1}, {1, 1}}, watch: 1}, {outages: [][2]int{{1, 2}, {0, 1}}, watch: 2},
		{outages: [][2]int{{2, 0}, {0, 1}, {1, 1}}, watch: 1}, {outages: [][2]int{{0, 2}, {2, 2}}, watch: 4},
		{outages: [][2]int{{1, 1}, {1, 1}, {1, 1}}}}, stop: 5,
		probes: []churnProbe{{at: 2, before: true, child: 1}, {at: 2, child: 1}, {at: 4, before: true, child: 3},
			{at: 4}, {at: 5}, {at: 6, child: 2}, {at: 8, before: true}}},
}

// TestChurnCorpus keeps the checked-in corpus equal to churnSeeds. With
// MOON_WRITE_CHURN_CORPUS set it writes the files instead.
func TestChurnCorpus(t *testing.T) {
	for name, p := range churnSeeds {
		if got := decodeChurnProgram(p.bytes()); fmt.Sprint(*got) != fmt.Sprint(*p) {
			t.Fatalf("%s: bytes() decodes to %+v, not %+v", name, *got, *p)
		}
		path := filepath.Join(churnCorpusDir, name)
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", p.bytes())
		if os.Getenv(churnCorpusWrite) != "" {
			if err := os.MkdirAll(churnCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != file {
			t.Errorf("%s: the corpus file is not this program (%v)", name, err)
		}
	}
}

// TestCursorMatchesUpfrontOnGeneratedFleet runs the comparison on the
// paper's outage model: a generated 8-hour fleet at rate 0.5.
func TestCursorMatchesUpfrontOnGeneratedFleet(t *testing.T) {
	traces, err := trace.GenerateFleet(rng.New(7), trace.DefaultOutageConfig(0.5), 8*3600, 12)
	if err != nil {
		t.Fatal(err)
	}
	logs := [2][]string{}
	for i, upfront := range []bool{false, true} {
		s := sim.New()
		var c *Cluster
		if upfront {
			c = newUpfront(s, Config{VolatileTraces: traces, DedicatedNodes: 2})
		} else {
			c = New(s, Config{VolatileTraces: traces, DedicatedNodes: 2})
		}
		for _, n := range c.Nodes {
			n.Watch(func(n *Node, up bool) {
				logs[i] = append(logs[i], fmt.Sprintf("%v %d %v %d", s.Now(), n.ID, up, c.AvailableCount()))
			})
		}
		s.Ticker(600, "probe", func() {
			logs[i] = append(logs[i], fmt.Sprintf("%v tick %v", s.Now(), c.VolatileUnavailableFraction()))
		})
		s.RunUntil(8 * 3600)
		logs[i] = append(logs[i], fmt.Sprintf("fired %d", s.Fired()))
	}
	if strings.Join(logs[0], "\n") != strings.Join(logs[1], "\n") {
		t.Fatalf("cursor and up-front scheduling differ on a generated fleet (%d vs %d lines)", len(logs[0]), len(logs[1]))
	}
}

// TestCursorQueuesOneTransitionPerNode: however long a trace is, a node holds
// at most one queued event.
func TestCursorQueuesOneTransitionPerNode(t *testing.T) {
	traces, err := trace.GenerateFleet(rng.New(3), trace.DefaultOutageConfig(0.5), 8*3600, 30)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	c := New(s, Config{VolatileTraces: traces, DedicatedNodes: 3})
	for s.Step() {
		if s.Pending() > len(c.Volatile) {
			t.Fatalf("%d events queued at t=%v for %d volatile nodes", s.Pending(), s.Now(), len(c.Volatile))
		}
	}
	outages := 0
	for _, tr := range traces {
		outages += len(tr.Outages)
	}
	if s.Fired() != uint64(2*outages) {
		t.Fatalf("%d transitions fired for %d outages", s.Fired(), outages)
	}
}

// TestNewRejectsTracesTheCursorCannotReplay: a trace whose transition times
// go back panics in New, naming the node and the outage. A zero-length
// outage, which trace.Validate refuses, is replayable and accepted.
func TestNewRejectsTracesTheCursorCannotReplay(t *testing.T) {
	for _, tc := range []struct {
		name    string
		outages []trace.Interval
		want    string
	}{
		{"overlap", []trace.Interval{{Start: 10, End: 30}, {Start: 20, End: 40}}, "node 1 outage 1 [20, 40]"},
		{"unsorted", []trace.Interval{{Start: 50, End: 60}, {Start: 10, End: 20}}, "node 1 outage 1 [10, 20]"},
		{"ends before it starts", []trace.Interval{{Start: 10, End: 5}}, "node 1 outage 0 [10, 5]"},
		{"starts before the clock", []trace.Interval{{Start: -1, End: 5}}, "node 1 outage 0 [-1, 5]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v, want one naming %q", r, tc.want)
				}
			}()
			New(sim.New(), Config{VolatileTraces: []trace.Trace{{Duration: 100}, {Duration: 100, Outages: tc.outages}}})
		})
	}
	zero := trace.Trace{Duration: 100, Outages: []trace.Interval{{Start: 10, End: 10}, {Start: 10, End: 20}}}
	if zero.Validate() == nil {
		t.Fatal("trace.Validate accepts a zero-length outage; this test wants one it refuses")
	}
	s := sim.New()
	c := New(s, Config{VolatileTraces: []trace.Trace{zero}})
	s.Run()
	if n := c.Volatile[0]; n.Suspensions() != 2 || n.DownTime() != 10 || !n.Available() {
		t.Fatalf("zero-length outage replayed to %d suspensions, %v s down, available %v", n.Suspensions(), n.DownTime(), n.Available())
	}
}
