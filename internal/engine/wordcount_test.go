package engine

import (
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// perWordMap is the reference for WordCountJob's map: one (word, "1") per
// word of strings.Fields, left to the combiner to fold. It shares no logic
// with countWords.
func perWordMap(input string, emit func(k, v string)) {
	for _, w := range strings.Fields(input) {
		emit(w, "1")
	}
}

// storeOf runs one map attempt of mapFn over input on a fresh worker and
// returns what the worker stored.
func storeOf(input string, reduces int, mapFn MapFunc, combine ReduceFunc) map[storeKey]partition {
	w := newWorker(0, false, nil, new(atomic.Int64), newClearedSet())
	w.runMap(assignment{reduces: reduces, input: input, mapFn: mapFn, combineFn: combine, replicateTo: -1}, newGrouper())
	return w.store
}

// FuzzWordCountStore: for any split and one to five reduces, WordCountJob's
// map and combiner (none) store exactly what the per-word reference stores
// through a sumCounts combiner: the same partitions, keys in the same order,
// the same values.
func FuzzWordCountStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string, reduces uint8) {
		r := int(reduces)%5 + 1
		job := WordCountJob("wc", 0, 0, 0, r)
		got, want := storeOf(input, r, job.Map, job.Combine), storeOf(input, r, perWordMap, sumCounts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q over %d reduces: stored %v, the per-word map stores %v", input, r, got, want)
		}
	})
}

// svcOpenSplit is one split of the job bench/svc.go posts: 4 000 words of
// the twelve-word vocabulary, three reduces.
func svcOpenSplit() Job { return WordCountJob("wc", 0, 1, 4000, 3) }

// TestWordCountMapEmitsOncePerWord: an svc-open-sized map emits once per
// distinct word, its count, where the per-word map emitted 4 000 times.
func TestWordCountMapEmitsOncePerWord(t *testing.T) {
	job := svcOpenSplit()
	count := func(mapFn MapFunc) (n int, sum map[string]int) {
		sum = map[string]int{}
		mapFn(job.Inputs[0], func(k, v string) {
			c, _ := strconv.Atoi(v)
			n, sum[k] = n+1, sum[k]+c
		})
		return n, sum
	}
	got, counted := count(job.Map)
	ref, want := count(perWordMap)
	if got != len(wordCountVocab) || ref != 4000 || !reflect.DeepEqual(counted, want) {
		t.Errorf("the map emitted %d times, the per-word map %d (want 12 and 4000); counts %v, want %v", got, ref, counted, want)
	}
}

// BenchmarkWordCountMap runs one svc-open-sized split (4 000 words, three
// reduces) through runMap with the per-word reference and its sumCounts
// combiner, and with the shipped counting map and its combiner (none).
func BenchmarkWordCountMap(b *testing.B) {
	job := svcOpenSplit()
	for _, v := range []struct {
		name    string
		mapFn   MapFunc
		combine ReduceFunc
	}{{"per-word", perWordMap, sumCounts}, {"counted", job.Map, job.Combine}} {
		b.Run(v.name, func(b *testing.B) {
			w := newWorker(0, false, nil, new(atomic.Int64), newClearedSet())
			g := newGrouper()
			a := assignment{reduces: job.Reduces, input: job.Inputs[0], mapFn: v.mapFn, combineFn: v.combine, replicateTo: -1}
			b.ReportAllocs()
			for b.Loop() {
				w.runMap(a, g)
			}
		})
	}
}
