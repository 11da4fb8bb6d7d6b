// Package cluster models the machines of an opportunistic MapReduce system:
// a pool of volatile volunteer PCs whose availability follows per-node
// traces, optionally supplemented (MOON's hybrid architecture) by a small
// set of dedicated nodes that never go away.
//
// A suspended node makes no compute progress, serves no data, and emits no
// heartbeats, but keeps its disk contents — exactly the semantics the paper
// assumes for a volunteer PC reclaimed by its owner (e.g. a paused virtual
// machine). Subsystems subscribe to availability transitions with Watch.
//
// A volatile node replays its trace as a cursor: only its next transition is
// queued, by the previous one's callback, at the position (sim.ReservedAt)
// it would have held had New queued the whole trace; New draws those order
// numbers. Fire and watcher order are up-front scheduling's (the reference
// of FuzzChurnCursorVsUpfront), with one queued event per node, not two per
// outage. A trace whose transition times go back cannot be replayed.
package cluster

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NodeType distinguishes volunteer PCs from MOON's dedicated anchors.
type NodeType int

const (
	// Volatile nodes follow an availability trace.
	Volatile NodeType = iota
	// Dedicated nodes are always available.
	Dedicated
)

// Watcher observes a node availability transition.
type Watcher func(n *Node, available bool)

// Node is one machine. All state changes happen on the simulation thread.
type Node struct {
	ID   int
	Type NodeType

	sim       *sim.Simulation
	trace     trace.Trace
	available bool
	watchers  []Watcher

	// The replay cursor: transition k is the suspend at Outages[k/2].Start
	// (k even) or the resume at its End (k odd), held at order number
	// seq0+k. next is the one queued; step is transition, bound once.
	next int
	seq0 uint64
	step func()

	// Statistics.
	suspensions   int
	lastDownAt    float64
	totalDownTime float64
}

// Available reports whether the node is currently up.
func (n *Node) Available() bool { return n.available }

// IsDedicated is a readability helper for scheduling policies.
func (n *Node) IsDedicated() bool { return n.Type == Dedicated }

// Suspensions returns how many times the node has gone down so far.
func (n *Node) Suspensions() int { return n.suspensions }

// DownTime returns accumulated unavailable seconds (through the last
// completed outage).
func (n *Node) DownTime() float64 { return n.totalDownTime }

// Watch registers fn to run on every availability transition of this node.
// Watchers run in registration order, synchronously at the transition
// instant.
func (n *Node) Watch(fn Watcher) { n.watchers = append(n.watchers, fn) }

func (n *Node) setAvailable(av bool) {
	if n.available == av {
		return
	}
	n.available = av
	if !av {
		n.suspensions++
		n.lastDownAt = n.sim.Now()
	} else {
		n.totalDownTime += n.sim.Now() - n.lastDownAt
	}
	for _, w := range n.watchers {
		w(n, av)
	}
}

// queue queues transition n.next, if the trace has one left.
func (n *Node) queue() {
	k := n.next
	if k == 2*len(n.trace.Outages) {
		return
	}
	at, name := n.trace.Outages[k/2].Start, "node.suspend"
	if k%2 == 1 {
		at, name = n.trace.Outages[k/2].End, "node.resume"
	}
	r := n.sim.ReservedAt(at, n.seq0+uint64(k))
	n.sim.ScheduleReserved(&r, name, n.step)
}

// transition fires transition n.next: it queues the next, then flips the node.
func (n *Node) transition() {
	up := n.next%2 == 1
	n.next++
	n.queue()
	n.setAvailable(up)
}

// Config describes a cluster to build.
type Config struct {
	// VolatileTraces supplies one availability trace per volatile node;
	// the fleet size is len(VolatileTraces).
	VolatileTraces []trace.Trace
	// DedicatedNodes is the number of always-on nodes (paper: 3, 4 or 6).
	DedicatedNodes int
}

// Cluster is the full machine fleet.
type Cluster struct {
	Sim       *sim.Simulation
	Nodes     []*Node
	Volatile  []*Node
	Dedicated []*Node

	// Availability tallies, maintained incrementally by a first-registered
	// watcher per node so AvailableCount and VolatileUnavailableFraction
	// are O(1) reads instead of O(nodes) scans — at 100k nodes the scans
	// turned every churn transition quadratic once anything subscribed to
	// them (the metrics timeline does, per transition).
	availCount   int
	volatileDown int
}

// New builds a cluster on s per cfg and queues each volatile node's first
// availability transition. Volatile nodes get IDs 0..V-1; dedicated nodes
// follow. It panics on a trace whose outages are unsorted, overlap, end
// before they start or start before the clock: the cursor cannot replay it.
func New(s *sim.Simulation, cfg Config) *Cluster {
	c := build(s, cfg)
	// build draws no order numbers, so these are the ones the up-front
	// Schedule calls drew: two per outage, node after node.
	for _, n := range c.Volatile {
		n.seq0, n.step = s.DrawOrder(2*len(n.trace.Outages)), n.transition
		n.queue()
	}
	return c
}

// build is New without the transitions: the nodes and the tally watchers.
func build(s *sim.Simulation, cfg Config) *Cluster {
	c := &Cluster{Sim: s}
	for i, tr := range cfg.VolatileTraces {
		prev := s.Now()
		for j, iv := range tr.Outages {
			if !(iv.Start >= prev && iv.End >= iv.Start) {
				panic(fmt.Sprintf("cluster: node %d outage %d [%v, %v] starts before %v or ends before it starts", i, j, iv.Start, iv.End, prev))
			}
			prev = iv.End
		}
		// A trace may start inside an outage; reflect that without firing
		// watchers (none are registered yet).
		n := &Node{ID: i, Type: Volatile, sim: s, trace: tr, available: tr.AvailableAt(0)}
		c.Nodes = append(c.Nodes, n)
		c.Volatile = append(c.Volatile, n)
	}
	for d := 0; d < cfg.DedicatedNodes; d++ {
		n := &Node{ID: len(cfg.VolatileTraces) + d, Type: Dedicated, sim: s, available: true}
		c.Nodes = append(c.Nodes, n)
		c.Dedicated = append(c.Dedicated, n)
	}
	// Tally watchers register before any subsystem's, so every later
	// watcher (and the transition's own callback) reads counts that
	// already reflect the flip — exactly what the scans reported.
	for _, n := range c.Nodes {
		if n.available {
			c.availCount++
		} else if n.Type == Volatile {
			c.volatileDown++
		}
		vol := n.Type == Volatile
		n.Watch(func(_ *Node, up bool) {
			if up {
				c.availCount++
				if vol {
					c.volatileDown--
				}
			} else {
				c.availCount--
				if vol {
					c.volatileDown++
				}
			}
		})
	}
	return c
}

// NewAllVolatile builds the Hadoop baseline fleet: the same machines as New
// (volatile + physically-dedicated ones), but every node is typed Volatile
// and churned by a trace; extraTraces supplies traces for the would-be
// dedicated machines. This mirrors the paper's Hadoop-VO runs where Hadoop
// "cannot differentiate between volatile and dedicated".
func NewAllVolatile(s *sim.Simulation, volatileTraces, extraTraces []trace.Trace) *Cluster {
	all := make([]trace.Trace, 0, len(volatileTraces)+len(extraTraces))
	all = append(all, volatileTraces...)
	all = append(all, extraTraces...)
	return New(s, Config{VolatileTraces: all})
}

// Instrument registers churn observability on c: fleet shape gauges, a
// sampled available-node and volatile-unavailability timeline, and
// suspension/down-time counters (the realized availability, to compare
// against the configured target rate). It registers one passive watcher per
// node; watchers only read node state, so instrumented and uninstrumented
// clusters evolve identically.
func (c *Cluster) Instrument(mc *metrics.Collector) {
	if mc == nil {
		return
	}
	mc.Gauge(metrics.LayerCluster, "volatile_nodes", "").Set(float64(len(c.Volatile)))
	mc.Gauge(metrics.LayerCluster, "dedicated_nodes", "").Set(float64(len(c.Dedicated)))
	avail := mc.SampleSeries(metrics.LayerCluster, "available_nodes", "")
	frac := mc.SampleSeries(metrics.LayerCluster, "volatile_unavail_frac", "")
	susp := mc.TimedCounter(metrics.LayerCluster, "suspensions", "")
	resumes := mc.TimedCounter(metrics.LayerCluster, "resumes", "")
	downSec := mc.Counter(metrics.LayerCluster, "down_seconds", "")
	spanGauge := mc.Gauge(metrics.LayerCluster, "down_span_seconds", "")
	now := c.Sim.Now()
	avail.Observe(now, float64(c.AvailableCount()))
	frac.Observe(now, c.VolatileUnavailableFraction())
	for _, n := range c.Nodes {
		node := n
		n.Watch(func(_ *Node, up bool) {
			t := c.Sim.Now()
			avail.Observe(t, float64(c.AvailableCount()))
			frac.Observe(t, c.VolatileUnavailableFraction())
			if !up {
				susp.IncAt(t)
				return
			}
			resumes.IncAt(t)
			span := t - node.lastDownAt
			downSec.Add(span)
			spanGauge.Set(span)
		})
	}
}

// AvailableCount returns how many nodes are currently up (an O(1) read of
// the maintained tally).
func (c *Cluster) AvailableCount() int { return c.availCount }

// VolatileUnavailableFraction returns the instantaneous fraction of volatile
// nodes that are down — the quantity the MOON NameNode monitors to estimate
// the node-unavailability rate p. O(1) via the maintained tally.
func (c *Cluster) VolatileUnavailableFraction() float64 {
	if len(c.Volatile) == 0 {
		return 0
	}
	return float64(c.volatileDown) / float64(len(c.Volatile))
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.Nodes) {
		return nil
	}
	return c.Nodes[id]
}
