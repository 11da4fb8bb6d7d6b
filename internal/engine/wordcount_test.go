package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"repro/internal/rng"
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

// TestSpaceMaskLanes: for every ASCII byte in every lane of a chunk whose
// other lanes are all 'a' or all ' ', spaceMask sets that lane's bit
// exactly when asciiSpace marks the byte, and the other lanes' bits say
// what the filler is.
func TestSpaceMaskLanes(t *testing.T) {
	for b := range utf8.RuneSelf {
		for lane := range 8 {
			for _, fill := range []byte{'a', ' '} {
				chunk := bytes.Repeat([]byte{fill}, 8)
				chunk[lane] = byte(b)
				got := spaceMask(binary.LittleEndian.Uint64(chunk))
				for i, c := range chunk {
					if set := got>>(8*i+7)&1 == 1; set != asciiSpace[c] {
						t.Errorf("chunk %q: lane %d bit %v, want %v", chunk, i, set, asciiSpace[c])
					}
				}
				if got&^highBits != 0 {
					t.Errorf("chunk %q: mask %#x sets a bit outside the lanes' high bits", chunk, got)
				}
			}
		}
	}
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

// wordCountInputs are BenchmarkWordCountMap's splits, 4 000 words each:
// svc-open's (12 distinct words, so countWords' memo hits 3 988 times),
// every word distinct (w0 … w3999: a memo miss on every word), a seeded
// skewed draw from 1 000 terms (term ⌊1000u³⌋ for uniform u, so t0 is a
// tenth of the split and the tail is long), and a seeded uniform draw from
// 200 terms of which every tenth carries a non-ASCII rune (é or —), one
// separator in fifty being U+00A0 or U+3000, so countWords meets its rune
// path every few chunks.
func wordCountInputs() []struct{ name, split string } {
	var distinct, skewed, nonASCII strings.Builder
	r := rng.New(1)
	for i := range 4000 {
		fmt.Fprintf(&distinct, "w%d ", i)
		u := r.Float64()
		fmt.Fprintf(&skewed, "t%d ", int(1000*u*u*u))
	}
	terms := make([]string, 200)
	for i := range terms {
		terms[i] = fmt.Sprintf("term%d", i)
		if i%10 == 0 {
			terms[i] += []string{"é", "—"}[i/10%2]
		}
	}
	for range 4000 {
		nonASCII.WriteString(terms[r.Intn(len(terms))])
		switch r.Intn(100) {
		case 0:
			nonASCII.WriteString("\u00a0")
		case 1:
			nonASCII.WriteString("\u3000")
		default:
			nonASCII.WriteByte(' ')
		}
	}
	return []struct{ name, split string }{
		{"svc-open", svcOpenSplit().Inputs[0]}, {"distinct", distinct.String()}, {"skewed", skewed.String()},
		{"non-ascii", nonASCII.String()},
	}
}

// BenchmarkWordCountMap runs each of wordCountInputs through runMap over
// three reduces, with the per-word reference and its sumCounts combiner
// and with the shipped counting map and its combiner (none).
func BenchmarkWordCountMap(b *testing.B) {
	job := svcOpenSplit()
	for _, in := range wordCountInputs() {
		for _, v := range []struct {
			name    string
			mapFn   MapFunc
			combine ReduceFunc
		}{{"per-word", perWordMap, sumCounts}, {"counted", job.Map, job.Combine}} {
			b.Run(in.name+"/"+v.name, func(b *testing.B) {
				w := newWorker(0, false, nil, new(atomic.Int64), newClearedSet())
				g := newGrouper()
				a := assignment{reduces: job.Reduces, input: in.split, mapFn: v.mapFn, combineFn: v.combine, replicateTo: -1}
				b.ReportAllocs()
				for b.Loop() {
					w.runMap(a, g)
				}
			})
		}
	}
}
