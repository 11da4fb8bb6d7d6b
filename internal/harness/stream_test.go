package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapred"
	"repro/internal/sched"
)

// multiTestConfig keeps the multi-job sweep fast: heavily scaled jobs, two
// rates, two seeds.
func multiTestConfig() Config {
	return Config{Seeds: []uint64{1, 2}, Scale: 16, Rates: []float64{0.1, 0.5}}
}

// TestStreamSweepCompletes: a stream sweep completes all jobs under both
// policies and reports one coherent row per job.
func TestStreamSweepCompletes(t *testing.T) {
	cfg := multiTestConfig()
	sw, err := cfg.RunSweep("streams", streamLines(3, 60, sched.FIFO[*mapred.Job](), sched.FairShare[*mapred.Job]()))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Variants) != 2 {
		t.Fatalf("variants %v", sw.Variants)
	}
	for _, v := range sw.Variants {
		for _, rate := range sw.Rates {
			st := sw.Get(v, rate)
			if st.Capped {
				t.Errorf("%s/%v capped", v, rate)
			}
			if st.Completed != 3 {
				t.Errorf("%s/%v completed %v, want 3", v, rate, st.Completed)
			}
			if len(st.Jobs) != 3 {
				t.Fatalf("%s/%v job rows %+v", v, rate, st.Jobs)
			}
			for i, job := range st.Jobs {
				if job.Makespan <= 0 {
					t.Errorf("%s/%v job %d makespan %v", v, rate, i, job.Makespan)
				}
			}
			if st.Span <= 0 || st.Throughput <= 0 {
				t.Errorf("%s/%v span %v throughput %v", v, rate, st.Span, st.Throughput)
			}
		}
	}
}

// TestParallelStreamSweepMatchesSerial is the determinism guard for stream
// cells on the worker pool: identical cells,
// identical rendered tables, identically ordered progress lines at
// Parallelism 1 and 8.
func TestParallelStreamSweepMatchesSerial(t *testing.T) {
	base := multiTestConfig()
	variants := streamLines(3, 60, sched.FIFO[*mapred.Job](), sched.FairShare[*mapred.Job]())

	run := func(parallelism int) (*Sweep, []string) {
		cfg := base
		cfg.Parallelism = parallelism
		var progress []string
		cfg.Progress = func(s string) { progress = append(progress, s) }
		sw, err := cfg.RunSweep("determinism", variants)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return sw, progress
	}

	serial, serialLines := run(1)
	parallel, parallelLines := run(8)

	for _, v := range serial.Variants {
		for _, r := range serial.Rates {
			a, b := serial.Get(v, r), parallel.Get(v, r)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("cell %s/%v differs:\nserial:   %+v\nparallel: %+v", v, r, a, b)
			}
		}
	}

	var bufA, bufB bytes.Buffer
	if err := serial.RenderStream(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := parallel.RenderStream(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("rendered tables differ:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}

	if len(serialLines) != len(parallelLines) {
		t.Fatalf("progress line count: serial %d, parallel %d", len(serialLines), len(parallelLines))
	}
	// A stream line reports the stream, not job 0's profile.
	if !strings.Contains(serialLines[0], "span=") || !strings.Contains(serialLines[0], "done=3/3") {
		t.Errorf("stream progress line %q", serialLines[0])
	}
	for i := range serialLines {
		if serialLines[i] != parallelLines[i] {
			t.Errorf("progress line %d differs:\nserial:   %s\nparallel: %s", i, serialLines[i], parallelLines[i])
		}
	}
}
