package engine

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// The reference: intermediate data as the engine kept it before the
// grouped flat partition — a map of per-key slices grown by append, routed
// by a hash/fnv hasher made per emission. It shares no logic with grouper.

func refPartitionOf(key string, reduces int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(reduces))
}

func refMap(emissions []emitted, reduces int) []map[string][]string {
	parts := make([]map[string][]string, reduces)
	for p := range parts {
		parts[p] = make(map[string][]string)
	}
	for _, e := range emissions {
		p := refPartitionOf(e.key, reduces)
		parts[p][e.key] = append(parts[p][e.key], e.val)
	}
	return parts
}

func refMerge(sources []map[string][]string) map[string][]string {
	merged := make(map[string][]string)
	for _, data := range sources {
		for k, vs := range data {
			merged[k] = append(merged[k], vs...)
		}
	}
	return merged
}

func refReduce(merged map[string][]string, reduceFn ReduceFunc) map[string]string {
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]string, len(merged))
	for _, k := range keys {
		out[k] = reduceFn(k, merged[k])
	}
	return out
}

type emitted struct{ key, val string }

// shuffleProgram is one decoded fuzz input: a job's emissions, map by map.
type shuffleProgram struct {
	reduces int
	appends bool        // the ReduceFunc appends to its values before folding them
	maps    [][]emitted // emission streams, one per map task, in source order
}

// fuzzBacking is the one string every fuzzed key is a substring of, the
// way a word-count map emits substrings of its split. The empty key and
// overlapping keys are in range.
const fuzzBacking = "moonmapreducemoon"

var fuzzValues = []string{"1", "", "v", "moon", "1"}

// decodeShuffleProgram reads reduces (1–7, the low bits), the append flag
// (the top bit) and the map count (1–4) from the first two bytes, then one
// emission per byte pair: the first picks the map task (top two bits) and
// the key (a start and a length into fuzzBacking), the second the value.
func decodeShuffleProgram(data []byte) shuffleProgram {
	p := shuffleProgram{reduces: 1, maps: make([][]emitted, 1)}
	if len(data) < 2 {
		return p
	}
	p.reduces = int(data[0]&0x07)%7 + 1
	p.appends = data[0]&0x80 != 0
	p.maps = make([][]emitted, data[1]%4+1)
	for rest := data[2:]; len(rest) >= 2; rest = rest[2:] {
		m := int(rest[0]>>6) % len(p.maps)
		start := int(rest[0]&0x0f) % len(fuzzBacking)
		n := int(rest[0]>>4&0x03) * 2 // 0, 2, 4 or 6 bytes: the empty key included
		end := min(start+n, len(fuzzBacking))
		p.maps[m] = append(p.maps[m], emitted{fuzzBacking[start:end], fuzzValues[int(rest[1])%len(fuzzValues)]})
	}
	return p
}

// shuffleSeen is what a run reached, for the named seeds to be checked by.
type shuffleSeen struct {
	emptyPartitions int // stored partitions with no key
	singleKeyMerges int // merges of one key holding every value
	lateKeys        int // keys whose first source is the last one
	appendsToValues int // ReduceFunc calls that appended
}

// runShuffleProgram pushes the program through both shapes and fails on the
// first reduce whose key set, per-key values in order, or outputs differ.
func runShuffleProgram(t testing.TB, p shuffleProgram) shuffleSeen {
	var seen shuffleSeen
	fold := func(key string, values []string) string {
		if p.appends {
			values = append(values, "appended")
			seen.appendsToValues++
		}
		return key + "=" + strings.Join(values, ",")
	}

	g := newGrouper()
	stored := make([][]partition, len(p.maps))
	want := make([][]map[string][]string, len(p.maps))
	for m, emissions := range p.maps {
		for _, e := range emissions {
			g.emit(e.key, e.val, p.reduces)
		}
		stored[m] = g.split(p.reduces)
		g.reset()
		want[m] = refMap(emissions, p.reduces)
		for r, part := range stored[m] {
			checkPartitionShape(t, part, fmt.Sprintf("map %d partition %d", m, r))
			if len(part.keys) == 0 {
				seen.emptyPartitions++
			}
		}
	}

	for r := 0; r < p.reduces; r++ {
		srcs := make([]partition, len(p.maps))
		refSrcs := make([]map[string][]string, len(p.maps))
		for m := range p.maps {
			srcs[m], refSrcs[m] = stored[m][r], want[m][r]
		}
		for k := range refSrcs[len(refSrcs)-1] {
			first := true
			for _, earlier := range refSrcs[:len(refSrcs)-1] {
				if _, ok := earlier[k]; ok {
					first = false
				}
			}
			if first && len(refSrcs) > 1 {
				seen.lateKeys++
			}
		}

		merged := g.merge(srcs)
		checkPartitionShape(t, merged, fmt.Sprintf("reduce %d merged", r))
		refMerged := refMerge(refSrcs)
		if len(merged.keys) != len(refMerged) {
			t.Fatalf("reduce %d: %d keys, reference %d", r, len(merged.keys), len(refMerged))
		}
		for i, k := range merged.keys {
			if vs, ok := refMerged[k]; !ok || !slices.Equal(merged.values(i), vs) {
				t.Fatalf("reduce %d key %q: values %q, reference %q (present %v)", r, k, merged.values(i), vs, ok)
			}
		}
		if len(merged.keys) == 1 && len(merged.vals) > 1 {
			seen.singleKeyMerges++
		}

		got := make(map[string]string, len(merged.keys))
		for _, k := range slices.Sorted(slices.Values(merged.keys)) { // as runReduce does
			got[k] = fold(k, merged.values(g.ids[k]))
		}
		ref := refReduce(refMerged, fold)
		if len(got) != len(ref) {
			t.Fatalf("reduce %d: %d outputs, reference %d", r, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("reduce %d output %q: %q, reference %q", r, k, got[k], v)
			}
		}
		g.reset()
	}
	return seen
}

// checkPartitionShape asserts the layout a partition promises: one end per
// key, ends ascending to len(vals), nothing allocated beyond what is used.
func checkPartitionShape(t testing.TB, p partition, what string) {
	if len(p.keys) != len(p.ends) {
		t.Fatalf("%s: %d keys, %d ends", what, len(p.keys), len(p.ends))
	}
	last := 0
	for i, e := range p.ends {
		if e < last {
			t.Fatalf("%s: ends %v descend at %d", what, p.ends, i)
		}
		last = e
	}
	if last != len(p.vals) || cap(p.vals) != len(p.vals) {
		t.Fatalf("%s: ends reach %d, vals len %d cap %d", what, last, len(p.vals), cap(p.vals))
	}
	for _, k := range p.keys {
		if len(k) > 0 && aliases(k, fuzzBacking) {
			t.Fatalf("%s: key %q is a substring of the split, not a clone", what, k)
		}
	}
}

// aliases reports whether s's bytes lie inside whole's.
func aliases(s, whole string) bool {
	a, b := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(whole)))
	return a >= b && a < b+uintptr(len(whole))
}

// em encodes one emission of decodeShuffleProgram's byte pair.
func em(mapTask, start, halfLen, value int) []byte {
	return []byte{byte(mapTask<<6 | halfLen<<4 | start), byte(value)}
}

func shuffleInput(reduces int, appends bool, maps int, emissions ...[]byte) []byte {
	head := byte(reduces - 1)
	if appends {
		head |= 0x80
	}
	return append([]byte{head, byte(maps - 1)}, slices.Concat(emissions...)...)
}

// partitionSeeds are the checked-in corpus, each named for the branch it
// reaches (TestPartitionCorpus holds them to it).
var partitionSeeds = map[string][]byte{
	// Seven reduces, two distinct keys: most stored partitions have no key.
	"empty-partition": shuffleInput(7, false, 2, em(0, 0, 2, 0), em(1, 4, 2, 0), em(0, 0, 2, 2)),
	// No emission at all: every partition of every map is empty.
	"zero-emissions": shuffleInput(3, false, 2),
	// One reduce, one key, values from three maps: the merge is one run.
	"single-key-all-values": shuffleInput(1, false, 3,
		em(0, 0, 2, 0), em(1, 0, 2, 1), em(2, 0, 2, 2), em(0, 0, 2, 3), em(2, 0, 2, 0)),
	// The last source brings a key no earlier source has: its id is assigned
	// after every other key's count is already in.
	"key-only-in-last-source": shuffleInput(1, false, 3,
		em(0, 0, 2, 0), em(1, 0, 2, 0), em(2, 4, 3, 2), em(2, 0, 2, 3)),
	// The ReduceFunc appends to its values: without the capacity limit the
	// append lands on the next key's first value.
	"reducer-appends-to-values": shuffleInput(1, true, 2,
		em(0, 0, 2, 0), em(0, 4, 2, 2), em(1, 0, 2, 3), em(1, 8, 1, 0), em(0, 0, 0, 1)),
}

const partitionCorpusDir = "testdata/fuzz/FuzzPartitionVsMap"

// TestPartitionCorpus keeps the corpus honest: each file is the seed of its
// name and each seed reaches what it is named for. With
// MOON_WRITE_PARTITION_CORPUS set it writes the files instead.
func TestPartitionCorpus(t *testing.T) {
	seen := map[string]shuffleSeen{}
	for name, data := range partitionSeeds {
		path := filepath.Join(partitionCorpusDir, name)
		file := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if os.Getenv("MOON_WRITE_PARTITION_CORPUS") != "" {
			if err := os.MkdirAll(partitionCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != file {
			t.Errorf("%s: the corpus file is not this seed (%v)", name, err)
		}
		seen[name] = runShuffleProgram(t, decodeShuffleProgram(data))
	}
	if s := seen["empty-partition"]; s.emptyPartitions < 8 {
		t.Errorf("empty-partition: %d empty partitions stored, want most of 14", s.emptyPartitions)
	}
	if s := seen["zero-emissions"]; s.emptyPartitions != 6 {
		t.Errorf("zero-emissions: %d empty partitions, want all 6", s.emptyPartitions)
	}
	if s := seen["single-key-all-values"]; s.singleKeyMerges != 1 {
		t.Errorf("single-key-all-values: %d single-key merges", s.singleKeyMerges)
	}
	if s := seen["key-only-in-last-source"]; s.lateKeys != 1 {
		t.Errorf("key-only-in-last-source: %d keys first seen in the last source", s.lateKeys)
	}
	if s := seen["reducer-appends-to-values"]; s.appendsToValues < 3 {
		t.Errorf("reducer-appends-to-values: the ReduceFunc appended %d times", s.appendsToValues)
	}
}

// FuzzPartitionVsMap runs random emission streams — repeated keys, empty
// keys and values, one to seven reduces, keys that are substrings of one
// backing string, no emission at all — through the grouper's map-side
// split and reduce-side merge and through the map-of-slices code they
// replaced; per reduce, the key set, each key's values in order and the
// reduce outputs must match.
func FuzzPartitionVsMap(f *testing.F) {
	for _, data := range partitionSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runShuffleProgram(t, decodeShuffleProgram(data))
	})
}

// TestPartitionOfMatchesFNV: the inlined hash is hash/fnv's New32a for
// every key — a partition that moved would change which reducer owns a
// key — and routing a key allocates nothing.
func TestPartitionOfMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "moon", "volunteer", "key-17", "\x00", "\xff\xfe", "ключ", strings.Repeat("long", 300)}
	for start := range fuzzBacking {
		for end := start; end <= len(fuzzBacking); end++ {
			keys = append(keys, fuzzBacking[start:end])
		}
	}
	for _, k := range keys {
		for _, r := range []int{1, 2, 3, 7, 64, 1000} {
			if got, want := partitionOf(k, r), refPartitionOf(k, r); got != want {
				t.Errorf("partitionOf(%q, %d) = %d, hash/fnv says %d", k, r, got, want)
			}
		}
	}
	key := fuzzBacking[3:11]
	if allocs := testing.AllocsPerRun(100, func() { partitionOf(key, 7) }); allocs != 0 {
		t.Errorf("partitionOf allocates %v per call", allocs)
	}
}
