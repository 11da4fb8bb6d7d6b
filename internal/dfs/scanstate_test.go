package dfs

import (
	"slices"
	"testing"

	"repro/internal/trace"
)

// The tests here pin NameNode behaviour that the figure goldens cover only by
// accident: what a re-replication's callback does once its file is gone, how
// long a failed re-replication keeps its block out of the scan, and the order
// the NameNode's passes walk files in. They hold on the per-block fields and
// on the name-keyed maps those fields replaced alike.

// loneReplica stages an opportunistic {0,2} file whose one block is
// registered on the given node only, so the first scan (t=3) re-replicates
// it: 1000 B at 100 B/s, done at t=13.
func loneReplica(t *testing.T, r *rig, name string, holder int) *Block {
	t.Helper()
	f, err := r.fs.CreateStaged(name, 1000, Opportunistic, Factor{V: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := f.Blocks[0]
	for _, id := range slices.Clone(b.replicas) {
		r.fs.dropReplica(b, id)
	}
	r.fs.registerReplica(b, holder)
	return b
}

// creationOrder names the files in the order the NameNode's passes (scan,
// expire, reRegister) walk them.
func creationOrder(fs *FileSystem) []string {
	var names []string
	for _, f := range fs.fileOrder {
		names = append(names, f.Name)
	}
	return names
}

func TestDeleteDuringReplication(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	loneReplica(t, r, "opp", 1)
	r.s.RunUntil(4)
	if r.fs.Metrics.ReplicationsIssued != 1 || r.fs.repStreams != 1 {
		t.Fatalf("at t=4: %d replications issued, %d streams, want 1 and 1",
			r.fs.Metrics.ReplicationsIssued, r.fs.repStreams)
	}
	r.fs.Delete("opp")
	// The transfer outlives the file and its callback runs at t=13 against a
	// block no scan can reach: the stream is given back, and nothing of the
	// block reappears in the namespace.
	r.s.RunUntil(60)
	if r.fs.repStreams != 0 {
		t.Fatalf("repStreams = %d after the orphaned transfer finished, want 0", r.fs.repStreams)
	}
	if r.fs.Exists("opp") || r.fs.HasLiveReplica(BlockID{File: "opp"}) || r.fs.FileFullyReplicated("opp") {
		t.Fatal("deleted file is visible again after its re-replication finished")
	}
	if got := r.fs.Metrics; got.ReplicationsIssued != 1 || got.TrimmedReplicas != 0 {
		t.Fatalf("scans after the delete issued or trimmed: %+v", got)
	}
}

func TestFailedReplicationBacksOff(t *testing.T) {
	// The only holder — the re-replication's source — is away from t=4 to
	// t=100: the transfer issued at t=3 stalls and fails at t=64 (stall
	// timeout 60), which backs the block off until t=124.
	r := newRig(t, ModeMOON, map[int][]trace.Interval{1: {{Start: 4, End: 100}}})
	b := loneReplica(t, r, "opp", 1)
	r.s.RunUntil(63)
	if r.fs.Metrics.ReplicationsIssued != 1 || r.fs.repStreams != 1 {
		t.Fatalf("at t=63: %d issued, %d streams, want 1 and 1", r.fs.Metrics.ReplicationsIssued, r.fs.repStreams)
	}
	// Node 1 is back and live from t=100 and the block is still one replica
	// short, but the scans at t=102…123 leave it alone.
	r.s.RunUntil(123.5)
	if r.fs.View(1) != DNLive {
		t.Fatalf("node 1 view = %v at t=123.5, want live", r.fs.View(1))
	}
	if r.fs.Metrics.ReplicationsIssued != 1 || r.fs.repStreams != 0 {
		t.Fatalf("inside the backoff: %d issued, %d streams, want 1 and 0",
			r.fs.Metrics.ReplicationsIssued, r.fs.repStreams)
	}
	// The first scan past t=124 (t=126) re-issues it.
	r.s.RunUntil(126.5)
	if r.fs.Metrics.ReplicationsIssued != 2 {
		t.Fatalf("after the backoff: %d issued, want 2", r.fs.Metrics.ReplicationsIssued)
	}
	r.s.RunUntil(200)
	if got := len(r.fs.liveReplicas(b)); got != 2 || r.fs.repStreams != 0 {
		t.Fatalf("at t=200: %d live replicas, %d streams, want 2 and 0", got, r.fs.repStreams)
	}
}

func TestNameNodeWalksFilesInCreationOrder(t *testing.T) {
	// Node 0 is away long enough to be declared dead (MOON expiry 1800 s)
	// and then returns.
	r := newRig(t, ModeMOON, map[int][]trace.Interval{0: {{Start: 100, End: 2500}}})
	r.fs.cfg.MaxReplicationStreams = 1
	// Created in the reverse of name order, so a walk in name order (or in
	// map order) would be told apart.
	zz := loneReplica(t, r, "zz", 0)
	aa := loneReplica(t, r, "aa", 0)
	if got := creationOrder(r.fs); !slices.Equal(got, []string{"zz", "aa"}) {
		t.Fatalf("walk order %v, want [zz aa]", got)
	}
	// Both blocks are one replica short and there is one stream: the scan's
	// walk order decides who gets it.
	r.s.RunUntil(14)
	if len(zz.replicas) != 2 || len(aa.replicas) != 1 {
		t.Fatalf("at t=14 zz has %d replicas and aa %d: the stream went to the later file",
			len(zz.replicas), len(aa.replicas))
	}
	r.s.RunUntil(2000)
	if slices.Contains(zz.replicas, 0) || slices.Contains(aa.replicas, 0) {
		t.Fatal("expire left the dead node registered on a file")
	}
	// A delete takes the file out of the walk and keeps the others in place;
	// a new file goes to the end.
	r.fs.Delete("zz")
	loneReplica(t, r, "mm", 1)
	if got := creationOrder(r.fs); !slices.Equal(got, []string{"aa", "mm"}) {
		t.Fatalf("walk order %v after delete and create, want [aa mm]", got)
	}
	// reRegister walks what is left: aa's copy on node 0 comes back, the
	// deleted zz's does not, mm never had one.
	r.s.RunUntil(2501)
	if r.fs.Metrics.ReRegistrations != 1 || !slices.Contains(aa.replicas, 0) {
		t.Fatalf("%d re-registrations, aa replicas %v; want 1 and node 0 back",
			r.fs.Metrics.ReRegistrations, aa.replicas)
	}
}
