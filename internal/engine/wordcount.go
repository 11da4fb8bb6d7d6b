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
func WordCountJob(name string, salt, splits, words, reduces int) Job {
	inputs := make([]string, splits)
	for s := range inputs {
		word := func(w int) string { return wordCountVocab[(salt+s*31+w*7)%len(wordCountVocab)] }
		size := 0
		for w := 0; w < words; w++ {
			size += len(word(w)) + 1
		}
		var b strings.Builder
		b.Grow(size) // one allocation a split, at its final size
		for w := 0; w < words; w++ {
			b.WriteString(word(w))
			b.WriteByte(' ')
		}
		inputs[s] = b.String()
	}
	return Job{
		Name:    name,
		Inputs:  inputs,
		Reduces: reduces,
		Map: func(input string, emit func(k, v string)) {
			for w := range strings.FieldsSeq(input) {
				emit(w, "1")
			}
		},
		Reduce: func(key string, values []string) string {
			return strconv.Itoa(len(values))
		},
	}
}
