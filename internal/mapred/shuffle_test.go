package mapred

import "testing"

// TestFetchPathAllocations is the shuffle's half of the allocation gate (the
// fabric's is the test of the same name in internal/netmodel): at steady
// state one whole fetch — pump finds the map, ReadBlock picks a source and
// starts the transfer, the transfer runs to completion, fetchDone books it and
// pumps again — allocates nothing. The flow is a slot's reused object, the
// DFS's read record a pooled one, and the shuffle passes the same bound
// callback for every fetch.
func TestFetchPathAllocations(t *testing.T) {
	w := newPumpWorld(t, pumpProg(2), false)
	w.completeMap(0)
	sh := w.startAttempt(w.job.reduces[0], pumpNodes-1).shuffle
	fetches := 0
	cycle := func() {
		// Map 0 is the only one with an output, so the walk has one
		// candidate; 100 bytes at 100 B/s are done inside two seconds,
		// heartbeats and NameNode scans included.
		sh.pump()
		w.s.RunUntil(w.s.Now() + 2)
		if sh.state[0] != fetchDone || sh.inflight != 0 {
			t.Fatalf("fetch %d: map 0 in state %d with %d in flight after two seconds", fetches, sh.state[0], sh.inflight)
		}
		fetches++
		sh.setState(0, fetchPending) // and again
		sh.fetched--
	}
	cycle() // the first fetch grows the slot table, the node lists and the due-set
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Errorf("%v allocs per shuffle fetch, want 0", got)
	}
	if w.fs.Metrics.FetchFailures+w.fs.Metrics.ReadStalls != 0 || fetches < 200 {
		t.Fatalf("%d fetches, DFS metrics %+v: the cycle did not measure clean fetches", fetches, w.fs.Metrics)
	}
}
