package dfs

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rig is a small test fixture: 4 volatile + 2 dedicated nodes, 100 B/s NIC,
// 1000-byte blocks for easy arithmetic.
type rig struct {
	s   *sim.Simulation
	c   *cluster.Cluster
	net *netmodel.Network
	fs  *FileSystem
}

func newRig(t *testing.T, mode Mode, outages map[int][]trace.Interval) *rig {
	t.Helper()
	s := sim.New()
	traces := make([]trace.Trace, 4)
	for i := range traces {
		traces[i] = trace.Trace{Duration: 1e6, Outages: outages[i]}
	}
	c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 2})
	net := netmodel.New(s, c, netmodel.Config{NodeBandwidth: 100, DiskBandwidth: 200, StallTimeout: 60})
	cfg := DefaultConfig(mode)
	cfg.BlockSize = 1000
	fs, err := New(s, c, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{s: s, c: c, net: net, fs: fs}
}

func TestCreateStagedMOONPlacement(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	f, err := r.fs.CreateStaged("input", 3000, Reliable, Factor{D: 1, V: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(f.Blocks))
	}
	for _, b := range f.Blocks {
		d, v := r.fs.countLive(b)
		if d != 1 || v != 3 {
			t.Fatalf("block %v staged with {%d,%d}, want {1,3}", b.ID, d, v)
		}
	}
	if !r.fs.FileFullyReplicated("input") {
		t.Fatal("staged file not fully replicated")
	}
}

func TestCreateStagedHadoopPlacement(t *testing.T) {
	r := newRig(t, ModeHadoop, nil)
	f, err := r.fs.CreateStaged("input", 1000, Reliable, Factor{V: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.Blocks[0].replicas); got != 3 {
		t.Fatalf("replicas = %d, want 3", got)
	}
}

func TestCreateStagedErrors(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{}); err == nil {
		t.Fatal("zero factor accepted")
	}
	if _, err := r.fs.CreateStaged("f", -1, Reliable, Factor{V: 1}); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{V: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{V: 1}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestWritePipelineTimingAndPlacement(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	from := r.c.Node(0) // volatile
	var doneAt float64 = -1
	var errGot error
	_, err := r.fs.Write(from, "out", 1000, Opportunistic, Factor{D: 1, V: 1}, func(e error) {
		doneAt, errGot = r.s.Now(), e
	})
	if err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(1000)
	if errGot != nil {
		t.Fatalf("write failed: %v", errGot)
	}
	// Local disk copy (1000 B at 200 B/s = 5 s) then relay to a dedicated
	// node (1000 B at 100 B/s = 10 s): 15 s total.
	if math.Abs(doneAt-15) > 1e-6 {
		t.Fatalf("write finished at %v, want 15", doneAt)
	}
	b := r.fs.File("out").Blocks[0]
	d, v := r.fs.countLive(b)
	if d != 1 || v != 1 {
		t.Fatalf("placed {%d,%d}, want {1,1}", d, v)
	}
	if !containsInt(b.replicas, 0) {
		t.Fatal("writer's local copy missing")
	}
}

func TestWriteReliableMultiVolatile(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	var errGot error
	done := false
	_, err := r.fs.Write(r.c.Node(1), "rel", 1000, Reliable, Factor{D: 1, V: 3}, func(e error) {
		errGot, done = e, true
	})
	if err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(10000)
	if !done || errGot != nil {
		t.Fatalf("done=%v err=%v", done, errGot)
	}
	d, v := r.fs.countLive(r.fs.File("rel").Blocks[0])
	if d != 1 || v != 3 {
		t.Fatalf("placed {%d,%d}, want {1,3}", d, v)
	}
}

func TestWriteDeclinedWhenDedicatedThrottled(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	// Force both dedicated nodes throttled.
	for _, id := range []int{4, 5} {
		r.fs.dn[id].throttled = true
	}
	declinesBefore := r.fs.Metrics.DedicatedDeclines
	done := false
	_, err := r.fs.Write(r.c.Node(0), "opp", 1000, Opportunistic, Factor{D: 1, V: 1}, func(e error) {
		if e != nil {
			t.Errorf("write failed: %v", e)
		}
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(10000)
	if !done {
		t.Fatal("write never completed")
	}
	if r.fs.Metrics.DedicatedDeclines <= declinesBefore {
		t.Fatal("throttled dedicated tier did not decline")
	}
	b := r.fs.File("opp").Blocks[0]
	d, _ := r.fs.countLive(b)
	if d != 0 {
		t.Fatalf("dedicated copies = %d, want 0 (declined)", d)
	}
	// Reliable writes must still be satisfied on dedicated nodes.
	done = false
	_, err = r.fs.Write(r.c.Node(1), "rel2", 1000, Reliable, Factor{D: 1, V: 1}, func(e error) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(20000)
	d, _ = r.fs.countLive(r.fs.File("rel2").Blocks[0])
	if !done || d != 1 {
		t.Fatalf("reliable write under throttling: done=%v d=%d", done, d)
	}
}

func TestAdaptiveV(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	// Manually load p samples.
	set := func(p float64) {
		for i := range r.fs.pSamples {
			r.fs.pSamples[i] = p
		}
		r.fs.pCount = len(r.fs.pSamples)
	}
	cases := []struct {
		p    float64
		want int
	}{
		{0.0, 1},
		{0.1, 2}, // 1-0.1 = 0.9 is not strictly > 0.9, so two copies
		{0.3, 2}, // 1-0.3^2 = 0.91 > 0.9
		{0.5, 4}, // 1-0.5^3 = 0.875 < 0.9; 1-0.5^4 = 0.9375
		{0.9, 6}, // clamped by MaxAdaptiveV=6 (the bound needs 22)
	}
	for _, c := range cases {
		set(c.p)
		if got := r.fs.AdaptiveV(); got != c.want {
			t.Fatalf("AdaptiveV(p=%v) = %d, want %d", c.p, got, c.want)
		}
		// The availability bound must hold whenever not clamped.
		v := r.fs.AdaptiveV()
		if v < r.fs.cfg.MaxAdaptiveV && c.p > 0 {
			if 1-math.Pow(c.p, float64(v)) <= r.fs.cfg.AvailabilityTarget {
				t.Fatalf("p=%v v=%d violates availability bound", c.p, v)
			}
		}
	}
}

func TestReadPrefersLocalThenVolatile(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{D: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	b := r.fs.File("f").Blocks[0]
	// Reader holding a replica reads locally.
	var local *cluster.Node
	for _, id := range b.replicas {
		if !r.fs.dn[id].node.IsDedicated() {
			local = r.fs.dn[id].node
			break
		}
	}
	gotSrc := -1
	if _, err := r.fs.ReadBlock(local, b.ID, 0, nil, 0, func(_, src int, err error) { gotSrc = src }); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(100)
	if gotSrc != local.ID {
		t.Fatalf("read source %d, want local %d", gotSrc, local.ID)
	}
	// A volatile non-holder prefers volatile replicas over dedicated.
	var reader *cluster.Node
	for _, n := range r.c.Volatile {
		if !containsInt(b.replicas, n.ID) {
			reader = n
			break
		}
	}
	gotSrc = -1
	if _, err := r.fs.ReadBlock(reader, b.ID, 0, nil, 0, func(_, src int, err error) { gotSrc = src }); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(200)
	if gotSrc < 0 || r.fs.dn[gotSrc].node.IsDedicated() {
		t.Fatalf("volatile reader chose dedicated source %d", gotSrc)
	}
}

func TestReadFallsBackToDedicated(t *testing.T) {
	// All volatile holders excluded → dedicated replica serves.
	r := newRig(t, ModeMOON, nil)
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{D: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	b := r.fs.File("f").Blocks[0]
	var exclude []int
	for _, id := range b.replicas {
		if !r.fs.dn[id].node.IsDedicated() {
			exclude = append(exclude, id)
		}
	}
	var reader *cluster.Node
	for _, n := range r.c.Volatile {
		if !containsInt(b.replicas, n.ID) {
			reader = n
			break
		}
	}
	gotSrc := -1
	if _, err := r.fs.ReadBlock(reader, b.ID, 0, exclude, 0, func(_, src int, err error) { gotSrc = src }); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(100)
	if gotSrc < 0 || !r.fs.dn[gotSrc].node.IsDedicated() {
		t.Fatalf("fallback source %d not dedicated", gotSrc)
	}
}

func TestReadNoReplica(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	if _, err := r.fs.CreateStaged("f", 1000, Opportunistic, Factor{V: 1}); err != nil {
		t.Fatal(err)
	}
	b := r.fs.File("f").Blocks[0]
	holder := b.replicas[0]
	ff := r.fs.Metrics.FetchFailures
	_, err := r.fs.ReadBlock(r.c.Node(3), b.ID, 0, []int{holder}, 0, func(int, int, error) {
		t.Error("done fired for ErrNoReplica")
	})
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	if r.fs.Metrics.FetchFailures != ff+1 {
		t.Fatal("fetch failure not counted")
	}
	if _, err := r.fs.ReadBlock(r.c.Node(3), BlockID{File: "nope"}, 0, nil, 0, nil); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("unknown file: %v", err)
	}
}

func TestPartialRead(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{D: 1, V: 1}); err != nil {
		t.Fatal(err)
	}
	b := r.fs.File("f").Blocks[0]
	var reader *cluster.Node
	for _, n := range r.c.Volatile {
		if !containsInt(b.replicas, n.ID) {
			reader = n
		}
	}
	start := r.s.Now()
	var doneAt float64
	if _, err := r.fs.ReadBlock(reader, b.ID, 100, nil, 0, func(int, int, error) { doneAt = r.s.Now() }); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(100)
	// 100 bytes at 100 B/s = 1 s.
	if math.Abs(doneAt-start-1) > 1e-6 {
		t.Fatalf("partial read took %v, want 1", doneAt-start)
	}
}

func TestExpiryDeregistersAndReplicates(t *testing.T) {
	// Node 0 suspends at t=100 and never returns (outage to horizon).
	r := newRig(t, ModeMOON, map[int][]trace.Interval{
		0: {{Start: 100, End: 9e5}},
	})
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{D: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	b := r.fs.File("f").Blocks[0]
	if !containsInt(b.replicas, 0) {
		t.Skip("staging did not use node 0; cursor layout changed")
	}
	r.s.RunUntil(100 + r.fs.cfg.NodeExpiryInterval + 120)
	if r.fs.View(0) != DNDead {
		t.Fatalf("node 0 view = %v, want dead", r.fs.View(0))
	}
	if containsInt(b.replicas, 0) {
		t.Fatal("dead node's replica still registered")
	}
	// Replication scan must have restored {1,2} on other nodes.
	d, v := r.fs.countLive(b)
	if d < 1 || v < 2 {
		t.Fatalf("after expiry: {%d,%d}, want at least {1,2}", d, v)
	}
	if r.fs.Metrics.ReplicationsIssued == 0 {
		t.Fatal("no re-replication issued")
	}
}

func TestHibernateSuppressesReplicationWithDedicatedCopy(t *testing.T) {
	// MOON: a block with a dedicated replica must NOT re-replicate when a
	// volatile holder merely hibernates.
	r := newRig(t, ModeMOON, map[int][]trace.Interval{
		1: {{Start: 50, End: 400}}, // longer than hibernate (90), shorter than expiry (600)
	})
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{D: 1, V: 1}); err != nil {
		t.Fatal(err)
	}
	b := r.fs.File("f").Blocks[0]
	if !containsInt(b.replicas, 1) {
		t.Skip("staging did not use node 1")
	}
	r.s.RunUntil(300)
	if r.fs.View(1) != DNHibernate {
		t.Fatalf("node 1 view = %v, want hibernate", r.fs.View(1))
	}
	if r.fs.Metrics.ReplicationsIssued != 0 {
		t.Fatalf("%d replications issued for a dedicated-backed block", r.fs.Metrics.ReplicationsIssued)
	}
	r.s.RunUntil(1000)
	if r.fs.View(1) != DNLive {
		t.Fatal("node 1 did not return to live")
	}
}

func TestHibernateReplicatesUnbackedOpportunistic(t *testing.T) {
	// An opportunistic block with NO dedicated copy must re-replicate when
	// one of its holders hibernates (a hibernating replica only counts
	// when a dedicated copy exists).
	r := newRig(t, ModeMOON, map[int][]trace.Interval{
		2: {{Start: 50, End: 400}},
	})
	f, err := r.fs.CreateStaged("opp", 1000, Opportunistic, Factor{V: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	// Pin the replicas to nodes 1 (stays live) and 2 (hibernates).
	for _, id := range append([]int(nil), b.replicas...) {
		r.fs.dropReplica(b, id)
	}
	r.fs.registerReplica(b, 1)
	r.fs.registerReplica(b, 2)
	r.s.RunUntil(350) // hibernate at 140, scan + ~10s copy well before 350
	if r.fs.View(2) != DNHibernate {
		t.Fatalf("node 2 view = %v, want hibernate", r.fs.View(2))
	}
	d, v := r.fs.countLive(b)
	if d+v < 2 {
		t.Fatalf("unbacked opportunistic block not re-replicated: {%d,%d}", d, v)
	}
	if r.fs.Metrics.ReplicationsIssued == 0 {
		t.Fatal("no replication issued for unbacked block")
	}
}

func TestHibernateSoleReplicaCannotReplicate(t *testing.T) {
	// When the ONLY replica hibernates there is no live source: the data
	// is temporarily unavailable and no replication can be issued — the
	// QoS gap the paper's task re-execution covers.
	r := newRig(t, ModeMOON, map[int][]trace.Interval{
		2: {{Start: 50, End: 400}},
	})
	f, err := r.fs.CreateStaged("opp", 1000, Opportunistic, Factor{V: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	for _, id := range append([]int(nil), b.replicas...) {
		r.fs.dropReplica(b, id)
	}
	r.fs.registerReplica(b, 2)
	r.s.RunUntil(350)
	if r.fs.HasLiveReplica(b.ID) {
		t.Fatal("hibernating sole replica reported live")
	}
	if r.fs.Metrics.ReplicationsIssued != 0 {
		t.Fatal("replication issued with no live source")
	}
	r.s.RunUntil(1000)
	if !r.fs.HasLiveReplica(b.ID) {
		t.Fatal("replica not servable after holder returned")
	}
}

func TestDeadNodeReRegistersOnReturn(t *testing.T) {
	// MOON's default expiry is 1800 s; the outage must exceed it.
	r := newRig(t, ModeMOON, map[int][]trace.Interval{
		0: {{Start: 10, End: 2500}}, // expires at 1810, returns at 2500
	})
	f, err := r.fs.CreateStaged("f", 1000, Opportunistic, Factor{V: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	for _, id := range append([]int(nil), b.replicas...) {
		r.fs.dropReplica(b, id)
	}
	r.fs.registerReplica(b, 0)
	r.fs.registerReplica(b, 1)
	r.s.RunUntil(2000)
	if containsInt(b.replicas, 0) {
		t.Fatal("dead node still registered")
	}
	r.s.RunUntil(4000)
	// The returning node re-reports its block; the scan may then trim it
	// again as excess, so assert the re-report happened and the block
	// stays at (or above) factor.
	if r.fs.Metrics.ReRegistrations == 0 {
		t.Fatal("re-registration not counted")
	}
	if _, v := r.fs.countLive(b); v < 2 {
		t.Fatalf("live volatile replicas = %d, want >= 2", v)
	}
}

func TestHadoopModeHasNoHibernate(t *testing.T) {
	r := newRig(t, ModeHadoop, map[int][]trace.Interval{
		1: {{Start: 50, End: 400}},
	})
	r.s.RunUntil(300)
	if r.fs.View(1) == DNHibernate {
		t.Fatal("Hadoop mode entered hibernate")
	}
	if r.fs.View(1) != DNLive {
		t.Fatalf("node 1 view = %v, want live (expiry is 600)", r.fs.View(1))
	}
}

func TestCommitTopsUpDedicated(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	// Opportunistic file without a dedicated copy (both dedicated
	// throttled at write time).
	r.fs.dn[4].throttled = true
	r.fs.dn[5].throttled = true
	done := false
	if _, err := r.fs.Write(r.c.Node(0), "out", 1000, Opportunistic, Factor{D: 1, V: 1}, func(error) { done = true }); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(5000)
	if !done {
		t.Fatal("write incomplete")
	}
	r.fs.dn[4].throttled = false
	r.fs.dn[5].throttled = false
	if err := r.fs.Commit("out"); err != nil {
		t.Fatal(err)
	}
	if r.fs.File("out").Class != Reliable {
		t.Fatal("commit did not reclassify")
	}
	r.s.RunUntil(10000)
	if !r.fs.FileFullyReplicated("out") {
		d, v := r.fs.countLive(r.fs.File("out").Blocks[0])
		t.Fatalf("committed file not topped up: {%d,%d}", d, v)
	}
	if err := r.fs.Commit("missing"); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("commit of missing file: %v", err)
	}
}

func TestWriteRetriesOnTargetOutage(t *testing.T) {
	// The relay target dies mid-transfer; the write must retry elsewhere
	// and still succeed.
	r := newRig(t, ModeMOON, map[int][]trace.Interval{
		1: {{Start: 1, End: 9e5}},
	})
	// Factor V:4 forces every volatile node to be a target, including the
	// dead-but-believed-live node 1, whose stage must stall and retry.
	var errGot error
	done := false
	_, err := r.fs.Write(r.c.Node(0), "f", 1000, Opportunistic, Factor{V: 4}, func(e error) {
		errGot, done = e, true
	})
	if err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(10000)
	if !done || errGot != nil {
		t.Fatalf("done=%v err=%v", done, errGot)
	}
	b := r.fs.File("f").Blocks[0]
	_, v := r.fs.countLive(b)
	if v < 3 {
		t.Fatalf("volatile replicas = %d, want 3 (all live volatile nodes)", v)
	}
	if containsInt(b.replicas, 1) {
		t.Fatal("replica registered on dead node")
	}
	if r.fs.Metrics.WriteRetries == 0 {
		t.Fatal("no retry recorded")
	}
}

func TestWriteCancel(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	var errGot error
	op, err := r.fs.Write(r.c.Node(0), "f", 1000, Opportunistic, Factor{V: 2}, func(e error) { errGot = e })
	if err != nil {
		t.Fatal(err)
	}
	r.s.Schedule(1, "cancel", func() { op.Cancel() })
	r.s.RunUntil(100)
	if !errors.Is(errGot, netmodel.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", errGot)
	}
	op.Cancel() // idempotent
}

func TestDelete(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{D: 1, V: 1}); err != nil {
		t.Fatal(err)
	}
	r.fs.Delete("f")
	if r.fs.Exists("f") {
		t.Fatal("file still exists after delete")
	}
	r.fs.Delete("f") // idempotent
	if r.fs.HasLiveReplica(BlockID{File: "f", Index: 0}) {
		t.Fatal("deleted block reports live replica")
	}
}

func TestBlockLocations(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	if _, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{D: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	locs := r.fs.BlockLocations(BlockID{File: "f", Index: 0})
	if len(locs) != 3 {
		t.Fatalf("locations = %v, want 3 nodes", locs)
	}
	if r.fs.BlockLocations(BlockID{File: "x"}) != nil {
		t.Fatal("locations for unknown block")
	}
}

func TestReadFile(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	if _, err := r.fs.CreateStaged("f", 2500, Reliable, Factor{D: 1, V: 1}); err != nil {
		t.Fatal(err)
	}
	done := false
	var errGot error
	if err := r.fs.ReadFile(r.c.Node(3), "f", func(e error) { done, errGot = true, e }); err != nil {
		t.Fatal(err)
	}
	r.s.RunUntil(10000)
	if !done || errGot != nil {
		t.Fatalf("ReadFile done=%v err=%v", done, errGot)
	}
	if err := r.fs.ReadFile(r.c.Node(3), "missing", func(error) {}); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("ReadFile(missing) err = %v", err)
	}
}

func TestTrimExcessReplicas(t *testing.T) {
	r := newRig(t, ModeHadoop, nil)
	f, err := r.fs.CreateStaged("f", 1000, Opportunistic, Factor{V: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	// Over-replicate by hand.
	for id := 0; id < 4; id++ {
		r.fs.registerReplica(b, id)
	}
	r.s.RunUntil(30)
	if got := len(r.fs.liveReplicas(b)); got != 2 {
		t.Fatalf("live replicas after trim = %d, want 2", got)
	}
	if r.fs.Metrics.TrimmedReplicas == 0 {
		t.Fatal("trim not counted")
	}
}

func TestFactorValidate(t *testing.T) {
	if (Factor{D: 1, V: 1}).Validate() != nil {
		t.Fatal("valid factor rejected")
	}
	for _, f := range []Factor{{}, {D: -1, V: 2}, {D: 1, V: -1}} {
		if f.Validate() == nil {
			t.Fatalf("factor %v accepted", f)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig(ModeMOON)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"hibernate >= expiry", func(c *Config) { c.NodeHibernateInterval = c.NodeExpiryInterval + 1 }},
		{"availability target 1.5", func(c *Config) { c.AvailabilityTarget = 1.5 }},
		{"negative expiry", func(c *Config) { *c = DefaultConfig(ModeHadoop); c.NodeExpiryInterval = -5 }},
		{"zero expiry", func(c *Config) { c.NodeExpiryInterval, c.NodeHibernateInterval = 0, 0 }},
		{"max adaptive v 0", func(c *Config) { c.MaxAdaptiveV = 0 }},
		{"max adaptive v -2", func(c *Config) { c.MaxAdaptiveV = -2 }},
		{"max replication streams 0", func(c *Config) { c.MaxReplicationStreams = 0 }},
	} {
		bad := cfg
		tc.mutate(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestStringers(t *testing.T) {
	if Reliable.String() != "reliable" || Opportunistic.String() != "opportunistic" {
		t.Fatal("FileClass strings")
	}
	if ModeMOON.String() != "moon" || ModeHadoop.String() != "hadoop" {
		t.Fatal("Mode strings")
	}
	if DNLive.String() != "live" || DNHibernate.String() != "hibernate" || DNDead.String() != "dead" {
		t.Fatal("DNState strings")
	}
	if (Factor{D: 1, V: 3}).String() != "{1,3}" {
		t.Fatal("Factor string")
	}
	if (BlockID{File: "f", Index: 2}).String() != "f[2]" {
		t.Fatal("BlockID string")
	}
}
