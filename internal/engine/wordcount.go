package engine

import (
	"strconv"
	"strings"
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

// countWords is word count's map, combining in the mapper: it counts its
// split's words in one pass, one hash lookup per word, and emits each
// distinct word once with its count, in first-seen order. That stores, byte
// for byte, what emitting (word, "1") per word through a sumCounts combiner
// stores (FuzzWordCountStore), so the job needs no Combine. It emits only
// after the whole split is counted, so a suspended worker stops at the end
// of the split, not within a word of the suspension.
func countWords(input string, emit func(k, v string)) {
	index := make(map[string]int)
	var words []string
	var counts []int
	for w := range strings.FieldsSeq(input) {
		if i, ok := index[w]; ok {
			counts[i]++
			continue
		}
		index[w] = len(words)
		words, counts = append(words, w), append(counts, 1)
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
