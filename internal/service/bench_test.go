package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// BenchmarkServiceSubmitPoll drives the whole service loop — POST
// /v1/jobs, poll GET /v1/jobs/{id} to completion — from concurrent HTTP
// clients against one persistent engine master. It reports end-to-end
// submission throughput (submits/s) and the p99 status-poll latency
// (p99_poll_ms), the BENCH_8.json headline numbers.
func BenchmarkServiceSubmitPoll(b *testing.B) {
	s, err := New(Config{
		VolatileWorkers: 4, DedicatedWorkers: 1,
		Quota: sched.QuotaConfig{MaxConcurrent: -1}, // unlimited: measure the path, not the throttle
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	body := []byte(`{"name": "bench", "splits": 2, "words_per_split": 40}`)
	var mu sync.Mutex
	var pollLatencies []time.Duration

	b.SetParallelism(4) // ~4× GOMAXPROCS concurrent clients
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		var lats []time.Duration
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				b.Errorf("submit: %d %s", resp.StatusCode, raw)
				return
			}
			var st Status
			if err := json.Unmarshal(raw, &st); err != nil {
				b.Error(err)
				return
			}
			for {
				t0 := time.Now()
				resp, err := client.Get(ts.URL + "/v1/jobs/" + st.ID)
				if err != nil {
					b.Error(err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				lats = append(lats, time.Since(t0))
				var cur Status
				if err := json.Unmarshal(raw, &cur); err != nil {
					b.Error(err)
					return
				}
				if cur.State == subDone {
					break
				}
				if cur.State == subFailed {
					b.Errorf("job failed: %s", cur.Error)
					return
				}
			}
		}
		mu.Lock()
		pollLatencies = append(pollLatencies, lats...)
		mu.Unlock()
	})
	b.StopTimer()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "submits/s")
	if len(pollLatencies) > 0 {
		sort.Slice(pollLatencies, func(i, j int) bool { return pollLatencies[i] < pollLatencies[j] })
		p99 := pollLatencies[len(pollLatencies)*99/100]
		b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99_poll_ms")
	}
}

// BenchmarkServiceStatusPoll isolates the read path: concurrent clients
// polling one finished submission's status (the hot endpoint while a
// dashboard watches a run).
func BenchmarkServiceStatusPoll(b *testing.B) {
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"name": "poll", "splits": 2, "words_per_split": 40}`)))
	if err != nil {
		b.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		b.Fatalf("submit body %q: %v", raw, err)
	}
	for st.State != subDone && st.State != subFailed {
		time.Sleep(time.Millisecond)
		r2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			b.Fatal(err)
		}
		raw, _ = io.ReadAll(r2.Body)
		r2.Body.Close()
		if err := json.Unmarshal(raw, &st); err != nil {
			b.Fatal(err)
		}
	}
	url := ts.URL + "/v1/jobs/" + st.ID

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Error(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Error(fmt.Errorf("poll: %d", resp.StatusCode))
				return
			}
		}
	})
}
