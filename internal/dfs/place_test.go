package dfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chooseFleetWalk is the placement walk chooseTier replaced, kept as its
// reference: every DataNode from the cursor on, a tier picked out by test.
func chooseFleetWalk(fs *FileSystem, dst []int, k int, exclude []int, eligible func(*dnView) bool, cursor *int) []int {
	if k <= 0 {
		return dst
	}
	n := len(fs.dn)
	chosen := 0
	for probe := 0; probe < n && chosen < k; probe++ {
		id := (*cursor + probe) % n
		v := fs.dn[id]
		if v.state != DNLive || !eligible(v) {
			continue
		}
		if containsInt(exclude, id) || containsInt(dst, id) {
			continue
		}
		dst = append(dst, id)
		chosen++
	}
	*cursor = (*cursor + 1) % n
	return dst
}

// pickFleetWalk is pickUnthrottledDedicated over the whole fleet, likewise.
func pickFleetWalk(fs *FileSystem, exclude, alsoExclude []int) int {
	n := len(fs.dn)
	for probe := 0; probe < n; probe++ {
		id := (fs.cursorD + probe) % n
		v := fs.dn[id]
		if v.dedicated && v.state == DNLive && !v.throttled &&
			!containsInt(exclude, id) && !containsInt(alsoExclude, id) {
			fs.cursorD = (fs.cursorD + 1) % n
			return id
		}
	}
	fs.cursorD = (fs.cursorD + 1) % n
	return -1
}

// randomFleet is a NameNode's view of n DataNodes with the tiers interleaved
// in id order, in random states — only what placement reads.
func randomFleet(rng *rand.Rand, n int) *FileSystem {
	fs := &FileSystem{}
	pDedicated := []float64{0, 0.05, 0.3, 0.7, 1}[rng.Intn(5)]
	for id := 0; id < n; id++ {
		v := &dnView{
			dedicated: rng.Float64() < pDedicated,
			state:     []DNState{DNLive, DNLive, DNLive, DNHibernate, DNDead}[rng.Intn(5)],
			throttled: rng.Intn(3) == 0,
		}
		fs.dn = append(fs.dn, v)
		if v.dedicated {
			fs.dedicated = append(fs.dedicated, id)
		} else {
			fs.volatile = append(fs.volatile, id)
		}
	}
	return fs
}

func randomIDs(rng *rand.Rand, n int) []int {
	var ids []int
	for k := rng.Intn(4); k > 0; k-- {
		ids = append(ids, rng.Intn(n))
	}
	return ids
}

func TestChooseTierMatchesFleetWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	isDedicated := func(v *dnView) bool { return v.dedicated }
	isVolatile := func(v *dnView) bool { return !v.dedicated }
	for round := 0; round < 4000; round++ {
		n := 1 + rng.Intn(40)
		fs := randomFleet(rng, n)
		cursor := rng.Intn(n)
		exclude, filled := randomIDs(rng, n), randomIDs(rng, n)
		k := rng.Intn(5) - 1
		desc := fmt.Sprintf("round %d: %d nodes, dedicated %v, cursor %d, k %d, exclude %v, dst %v",
			round, n, fs.dedicated, cursor, k, exclude, filled)

		// Three calls in a row, so a cursor left in the wrong place shows in
		// the next choice too.
		for call := 0; call < 3; call++ {
			wantC := cursor
			want := chooseFleetWalk(fs, slices.Clone(filled), k, exclude, isDedicated, &wantC)
			fs.cursorD = cursor
			if got := fs.chooseDedicated(slices.Clone(filled), k, exclude); !slices.Equal(got, want) || fs.cursorD != wantC {
				t.Fatalf("%s\nchooseDedicated: %v, cursor %d; the fleet walk: %v, cursor %d", desc, got, fs.cursorD, want, wantC)
			}

			wantC = cursor
			want = chooseFleetWalk(fs, slices.Clone(filled), k, exclude, isVolatile, &wantC)
			fs.cursorV = cursor
			if got := fs.chooseVolatile(slices.Clone(filled), k, exclude); !slices.Equal(got, want) || fs.cursorV != wantC {
				t.Fatalf("%s\nchooseVolatile: %v, cursor %d; the fleet walk: %v, cursor %d", desc, got, fs.cursorV, want, wantC)
			}

			wantC = cursor
			want = chooseFleetWalk(fs, slices.Clone(filled), k, exclude, func(*dnView) bool { return true }, &wantC)
			fs.cursorV = cursor
			if got := fs.chooseAny(slices.Clone(filled), k, exclude); !slices.Equal(got, want) || fs.cursorV != wantC {
				t.Fatalf("%s\nchooseAny: %v, cursor %d; the fleet walk: %v, cursor %d", desc, got, fs.cursorV, want, wantC)
			}

			fs.cursorD = cursor
			wantID := pickFleetWalk(fs, exclude, filled)
			wantC, fs.cursorD = fs.cursorD, cursor
			if got := fs.pickUnthrottledDedicated(exclude, filled); got != wantID || fs.cursorD != wantC {
				t.Fatalf("%s\npickUnthrottledDedicated: %d, cursor %d; the fleet walk: %d, cursor %d", desc, got, fs.cursorD, wantID, wantC)
			}

			allThrottled := true
			for _, v := range fs.dn {
				if v.dedicated && v.state == DNLive && !v.throttled {
					allThrottled = false
				}
			}
			if got := fs.allDedicatedThrottled(); got != allThrottled {
				t.Fatalf("%s\nallDedicatedThrottled: %v, the fleet walk: %v", desc, got, allThrottled)
			}
			cursor = wantC
		}
	}
}

// TestTierListsFollowTheCluster pins what New builds the walks from.
func TestTierListsFollowTheCluster(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	if !slices.Equal(r.fs.volatile, []int{0, 1, 2, 3}) || !slices.Equal(r.fs.dedicated, []int{4, 5}) {
		t.Fatalf("tiers: volatile %v, dedicated %v; want [0 1 2 3] and [4 5]", r.fs.volatile, r.fs.dedicated)
	}
}

// BenchmarkPlacement is one dedicated placement on the sim-fleet workload's
// shape, 3 960 volatile and 40 dedicated DataNodes, from a mid-fleet cursor:
// the fleet walk passed ~2 000 volatile records to reach the tier.
func BenchmarkPlacement(b *testing.B) {
	s := sim.New()
	traces := make([]trace.Trace, 3960)
	for i := range traces {
		traces[i] = trace.Trace{Duration: 1e12}
	}
	c := cluster.New(s, cluster.Config{VolatileTraces: traces, DedicatedNodes: 40})
	fs, err := New(s, c, netmodel.New(s, c, netmodel.DefaultConfig()), DefaultConfig(ModeMOON))
	if err != nil {
		b.Fatal(err)
	}
	var dst []int
	b.Run("tier-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fs.cursorD = 2000
			dst = fs.chooseDedicated(dst[:0], 1, nil)
		}
	})
	b.Run("fleet-walk-reference", func(b *testing.B) {
		isDedicated := func(v *dnView) bool { return v.dedicated }
		for i := 0; i < b.N; i++ {
			fs.cursorD = 2000
			dst = chooseFleetWalk(fs, dst[:0], 1, nil, isDedicated, &fs.cursorD)
		}
	})
}
