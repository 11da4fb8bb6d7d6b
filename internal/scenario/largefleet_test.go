package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// largeFleetSHA256 is the stdout hash of the run below, recorded at PR 18's
// commit with shard_workers 1 while the shard pool still existed, so the
// pin also proves that collapsing every fanned site onto its serial branch
// kept the bytes.
const largeFleetSHA256 = "23f288d4ce6db46a62b96846556ebb151d89f2910acaa60dae4240f36891523b"

// TestLargeFleetPinned is the only large-fleet simulation in `go test`:
// scale-100k shrunk to 4 000 volatile + 100 dedicated nodes, a 2 h horizon
// and 2 jobs at -scale 32, seed 1. Everything else the suite runs is the
// paper's 66-node fleet or smaller, so fleet-sized slices, the placement
// cursor's tier lists and the heartbeat scan over thousands of trackers are
// covered end to end only here.
func TestLargeFleetPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 4 100-node simulation")
	}
	spec, ok := Lookup("scale-100k")
	if !ok {
		t.Fatal("scale-100k builtin missing")
	}
	spec.Sweep.Seeds = []uint64{1}
	spec.Sweep.Scale = 32
	c := spec.Experiments[0].Custom
	c.Cluster.Volatile = intp(4000)
	c.Cluster.Dedicated = intp(100)
	c.Cluster.HorizonSeconds = 2 * 3600
	c.Workload.Jobs = 2
	c.Workload.IntervalSeconds = 600
	plan, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := plan.Execute(&out, nil); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != largeFleetSHA256 {
		t.Errorf("stdout sha256 = %s, want %s\n%s", got, largeFleetSHA256, out.String())
	}
}

// TestShardWorkersFieldIsInert: sweep.shard_workers is parsed and
// range-checked but sizes nothing. When it sized the per-worker tally
// slices of a fleet large enough to fan its scans out (2 048 trackers),
// the value below asked makeslice for 79 TB.
func TestShardWorkersFieldIsInert(t *testing.T) {
	const tmpl = `{"schema":"moon-scenario/v1","name":"inert","sweep":{"rates":[0.1],"scale":32,"parallelism":1%s},
		"experiments":[{"custom":{"title":"2k nodes",
		"cluster":{"volatile":2040,"dedicated":20,"horizon_seconds":1800},
		"workload":{"app":"sort","sleep":true,"reduce_slots":88},
		"variants":[{"label":"2k-nodes","preset":"moon-hybrid"}]}}]}`
	run := func(field string) string {
		plan, err := Compile(mustParse(t, fmt.Sprintf(tmpl, field)))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := plan.Execute(&out, nil); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	without := run("")
	if without == "" {
		t.Fatal("run printed nothing")
	}
	if with := run(`,"shard_workers":1099511627776`); with != without {
		t.Errorf("shard_workers changed the output:\n%s\nwithout it:\n%s", with, without)
	}
	neg := mustParse(t, fmt.Sprintf(tmpl, `,"shard_workers":-1`))
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "shard_workers") {
		t.Errorf("negative shard_workers: Validate returned %v", err)
	}
}
