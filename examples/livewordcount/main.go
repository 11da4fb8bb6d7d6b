// livewordcount runs a real word count on the live goroutine engine while
// volunteer workers are being suspended and resumed underneath it — the
// MOON failure model executed for real, not simulated. The output counts
// are exact despite the churn.
//
//	go run ./examples/livewordcount
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/rng"
)

func main() {
	cfg := engine.DefaultConfig()
	cfg.VolatileWorkers = 5
	cfg.DedicatedWorkers = 1
	cluster, err := engine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Deterministic synthetic corpus: 16 splits of repeated vocabulary.
	vocab := strings.Fields("moon map reduce shuffle volunteer dedicated churn hibernate straggler homestretch")
	r := rng.New(42)
	inputs := make([]string, 16)
	expected := map[string]int{}
	for i := range inputs {
		var b strings.Builder
		for j := 0; j < 2000; j++ {
			w := vocab[r.Intn(len(vocab))]
			b.WriteString(w)
			b.WriteByte(' ')
			expected[w]++
		}
		inputs[i] = b.String()
	}

	// Summing counts is its own combiner: each map stores one partial count
	// per word, and the reduce sums those.
	sum := func(key string, values []string) string {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(v)
			total += n
		}
		return strconv.Itoa(total)
	}
	job := engine.Job{
		Name:    "livewordcount",
		Inputs:  inputs,
		Reduces: 3,
		Map: func(input string, emit func(k, v string)) {
			for _, w := range strings.Fields(input) {
				emit(w, "1")
			}
		},
		Combine: sum,
		Reduce:  sum,
	}

	// Churn injector: every 20 ms suspend a random volatile worker for
	// 60 ms — a compressed version of the paper's availability traces.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		cr := rng.New(7)
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				w := cr.Intn(cfg.VolatileWorkers)
				if err := cluster.Suspend(w); err == nil {
					go func(w int) {
						time.Sleep(60 * time.Millisecond)
						_ = cluster.Resume(w)
					}(w)
				}
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	results, stats, err := cluster.Run(ctx, job)
	if err != nil {
		log.Fatal(err)
	}

	words := make([]string, 0, len(results))
	for w := range results {
		words = append(words, w)
	}
	sort.Strings(words)
	ok := len(results) == len(expected) // a lost word is wrong too
	for _, w := range words {
		want := strconv.Itoa(expected[w])
		marker := ""
		if results[w] != want {
			marker, ok = "  <-- WRONG", false
		}
		fmt.Printf("%-12s %s%s\n", w, results[w], marker)
	}
	fmt.Printf("\ncompleted in %v under churn\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("map attempts %d (tasks %d), reduce attempts %d (tasks %d)\n",
		stats.MapAttempts, len(inputs), stats.ReduceAttempts, job.Reduces)
	fmt.Printf("frozen-task backups %d, map re-executions %d, fetch failures %d\n",
		stats.BackupCopies, stats.MapReexecs, stats.FetchFailures)
	if !ok {
		fmt.Println("MISMATCH — this should never happen")
		os.Exit(1)
	}
	fmt.Println("all counts exact: churn did not corrupt the computation")
}
