package engine

import (
	"context"
	"testing"
	"time"
)

func TestJobStatusLifecycle(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, want := wordCountJob(4, 200, 2)
	h, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != 0 {
		t.Fatalf("first job ID = %d, want 0", h.ID())
	}
	st := h.Status()
	if st.State != JobQueued && st.State != JobRunning && st.State != JobDone {
		t.Fatalf("fresh status state = %q", st.State)
	}
	if st.MapsTotal != 4 || st.ReducesTotal != 2 {
		t.Fatalf("totals = %d/%d maps, %d/%d reduces", st.MapsDone, st.MapsTotal, st.ReducesDone, st.ReducesTotal)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, waited, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, got, want)

	fin := h.Status()
	if fin.State != JobDone {
		t.Fatalf("final state = %q, want done", fin.State)
	}
	if fin.MapsDone != 4 || fin.ReducesDone != 2 {
		t.Fatalf("final progress = %d/%d maps, %d/%d reduces", fin.MapsDone, fin.MapsTotal, fin.ReducesDone, fin.ReducesTotal)
	}
	if fin != waited {
		t.Fatalf("Status() = %+v after Wait returned %+v", fin, waited)
	}
	if fin.Makespan <= 0 || fin.Makespan < fin.QueueWait {
		t.Fatalf("makespan %v, queue wait %v", fin.Makespan, fin.QueueWait)
	}
	if fin.ID != 0 || fin.Job != "wc" {
		t.Fatalf("identity = %d %q", fin.ID, fin.Job)
	}

	// A second submission gets the next ID.
	job2 := job
	job2.Name = "wc2"
	h2, err := c.Submit(job2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID() != 1 {
		t.Fatalf("second job ID = %d, want 1", h2.ID())
	}
	if _, _, err := h2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestJobStatusFailedOnClose(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VolatileWorkers = 1
	cfg.DedicatedWorkers = 0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Suspend the only worker so the job can never finish.
	if err := c.Suspend(0); err != nil {
		t.Fatal(err)
	}
	job, _ := wordCountJob(2, 50, 1)
	h, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-h.Done()
	st := h.Status()
	if st.State != JobFailed || st.Err == "" {
		t.Fatalf("status after close = %+v, want failed with error", st)
	}
	if !st.State.Terminal() {
		t.Fatal("failed state must be terminal")
	}
}
