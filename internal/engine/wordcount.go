package engine

import (
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

// countWords is word count's map, combining in the mapper: it counts its
// split's words in one pass and emits each distinct word once with its
// count, in first-seen order. That stores, byte for byte, what emitting
// (word, "1") per word through a sumCounts combiner stores
// (FuzzWordCountStore), so the job needs no Combine. It emits only after
// the whole split is counted, so a suspended worker stops at the end of
// the split, not within a word of the suspension.
//
// Words are what strings.Fields finds, found by one byte scan: an ASCII
// byte is a separator by table, a byte of 0x80 or above decodes a rune for
// unicode.IsSpace. A memo of memoSlots words, slotted by length and first
// and last byte, answers a repeated word with one compare before the index
// is asked; a miss asks the index and takes the slot, so the index alone
// decides order and takes every collision. That pays on a split of few
// distinct words: an svc-open split's 12 words in 4 000 hit the memo 3 988
// times, and the split counts about 1.5x faster than through FieldsSeq and
// the index alone. Splits of 4 000 distinct words, a skewed 1 000-term
// vocabulary or English prose read the same either way
// (BenchmarkWordCountMap).
func countWords(input string, emit func(k, v string)) {
	index := make(map[string]int)
	var words []string
	var counts []int
	var memo [memoSlots]struct {
		word string
		i    int
	}
	// separator reports whether input[pos:] starts with a space, and its width.
	separator := func(pos int) (bool, int) {
		if c := input[pos]; c < utf8.RuneSelf {
			return asciiSpace[c], 1
		}
		r, size := utf8.DecodeRuneInString(input[pos:])
		return unicode.IsSpace(r), size
	}
	for pos := 0; pos < len(input); {
		if sep, size := separator(pos); sep {
			pos += size
			continue
		}
		start := pos
		for pos < len(input) {
			sep, size := separator(pos)
			if sep {
				break
			}
			pos += size
		}
		w := input[start:pos]
		m := &memo[(len(w)*31+int(w[0])*7+int(w[len(w)-1]))%memoSlots]
		if m.word == w {
			counts[m.i]++
			continue
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
