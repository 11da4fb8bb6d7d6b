package engine

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// wordCountVocab is the vocabulary of the synthetic corpus.
var wordCountVocab = []string{"moon", "map", "reduce", "volunteer", "hadoop", "churn", "node", "data",
	"shuffle", "backup", "hybrid", "dedicated"}

// WordCountJob builds the real word count the live sweeps and the service
// run: splits × words of deterministic synthetic text (word w of split s is
// vocabulary entry salt+31s+7w, so a salt per job gives sibling jobs
// different corpora and every rerun the identical one), counted into
// reduces partitions. With splits == 0 the caller supplies Inputs.
//
// The splits are substrings of one tape of words+11 words whose word k is
// entry 7k: split s starts at tape word 7(salt+31s) mod 12, since 7 is its
// own inverse mod 12. The job holds one split's text, not splits of them.
func WordCountJob(name string, salt, splits, words, reduces int) Job {
	n := len(wordCountVocab)
	word := func(k int) string { return wordCountVocab[k*7%n] }
	// The tape repeats every n words, so a word's offset is whole periods plus first.
	first, period := make([]int, n), 0
	for k := range first {
		first[k] = period
		period += len(word(k)) + 1
	}
	offset := func(k int) int { return k/n*period + first[k%n] }
	var b strings.Builder
	b.Grow(offset(words + n - 1)) // one allocation, at its final size
	for k := 0; k < words+n-1; k++ {
		b.WriteString(word(k))
		b.WriteByte(' ')
	}
	tape := b.String()
	inputs := make([]string, splits)
	for s := range inputs {
		k := 7 * ((salt + 31*s) % n) % n
		inputs[s] = tape[offset(k):offset(k+words)]
	}
	return Job{
		Name:    name,
		Inputs:  inputs,
		Reduces: reduces,
		Map:     countWords,
		Reduce:  sumCounts,
	}
}

// memoSlots is how many words countWords remembers in front of its index:
// a power of two, so the slot's modulo is a mask, and few enough that the
// local array (6 kB) is cheap to zero per split. The svc-open vocabulary's
// 12 words land in 12 distinct slots.
const memoSlots = 256

// asciiSpace marks the six ASCII bytes strings.Fields splits on, indexed by
// any byte.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// lowBits and highBits hold 0x01 and 0x80 in each byte.
const lowBits, highBits = 0x0101010101010101, 0x8080808080808080

// spaceMask sets the high bit of each byte of x that asciiSpace marks, for
// an x with every byte under 0x80: a space is a byte of x^' ' whose sum
// with 0x7f keeps its high bit clear, and '\t'..'\r' a byte b with b+0x77
// at or over 0x80 and b+0x72 under it. Nothing carries across bytes.
func spaceMask(x uint64) uint64 {
	space := ^((x ^ ' '*lowBits) + 0x7f*lowBits)
	ctrl := (x + (0x80-'\t')*lowBits) &^ (x + (0x80-'\r'-1)*lowBits)
	return (space | ctrl) & highBits
}

// countWords is word count's map, combining in the mapper: it counts its
// split's words in one pass and emits each distinct word once with its
// count, in first-seen order. That stores, byte for byte, what emitting
// (word, "1") per word through a sumCounts combiner stores
// (FuzzWordCountStore), so the job needs no Combine. It emits only after
// the whole split is counted, so a suspended worker stops at the end of
// the split, not within a word of the suspension.
//
// Words are what strings.Fields finds, found by one scan with two strides
// sharing the start of the current word. An 8-byte chunk with every byte
// under 0x80 is one load and spaceMask: a few word-wide operations and a
// step per separator, not a table load and a branch per byte. A chunk with
// a byte of 0x80 or above, and the tail under 8 bytes, go rune by rune
// (asciiSpace, or unicode.IsSpace on a decoded rune) to the chunk's end,
// which a rune may overrun, and cost what the per-byte scan did. A memo of
// memoSlots words, slotted by length and first and last byte, answers a
// repeated word with one compare before the index is asked; a miss asks
// the index and takes the slot, so the index alone decides order and
// takes every collision. An svc-open split's 12 words in 4 000 hit the
// memo 3 988 times, and the chunk stride counts that split about 1.5x
// faster than the per-byte scan; splits of 4 000 distinct words, a skewed
// 1 000-term vocabulary or non-ASCII terms and spaces read about the same
// (BenchmarkWordCountMap).
func countWords(input string, emit func(k, v string)) {
	index := make(map[string]int)
	var words []string
	var counts []int
	var memo [memoSlots]struct {
		word string
		i    int
	}
	count := func(w string) {
		if w == "" {
			return
		}
		m := &memo[(len(w)*31+int(w[0])*7+int(w[len(w)-1]))%memoSlots]
		if m.word == w {
			counts[m.i]++
			return
		}
		i, ok := index[w]
		if !ok {
			i = len(words)
			index[w] = i
			words, counts = append(words, w), append(counts, 0)
		}
		counts[i]++
		m.word, m.i = w, i
	}
	// separator reports whether input[pos:] starts with a space, and its width.
	separator := func(pos int) (bool, int) {
		if c := input[pos]; c < utf8.RuneSelf {
			return asciiSpace[c], 1
		}
		r, size := utf8.DecodeRuneInString(input[pos:])
		return unicode.IsSpace(r), size
	}
	ws := 0 // where the current word starts
	for pos := 0; pos < len(input); {
		if pos+8 <= len(input) {
			if x := binary.LittleEndian.Uint64([]byte(input[pos : pos+8])); x&highBits == 0 {
				for m := spaceMask(x); m != 0; m &= m - 1 {
					sep := pos + bits.TrailingZeros64(m)>>3
					count(input[ws:sep])
					ws = sep + 1
				}
				pos += 8
				continue
			}
		}
		for end := min(pos+8, len(input)); pos < end; {
			sep, size := separator(pos)
			if sep {
				count(input[ws:pos])
				ws = pos + size
			}
			pos += size
		}
	}
	count(input[ws:])
	for i, w := range words {
		emit(w, strconv.Itoa(counts[i]))
	}
}

// sumCounts adds decimal counts: word count's reducer. A value is a count
// a map emitted, so it parses.
func sumCounts(_ string, values []string) string {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(v)
		total += n
	}
	return strconv.Itoa(total)
}
