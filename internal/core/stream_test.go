package core

import (
	"testing"

	"repro/internal/mapred"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestRunWorkloadStreamEndToEnd(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 10, DedicatedNodes: 2, UnavailabilityRate: 0.3, Seed: 3}
	m := workload.Stream(smallSpec(), workload.Arrivals("staggered", 3, 120, 0), 0)
	for _, pol := range []sched.Policy[*mapred.Job]{sched.FIFO[*mapred.Job](), sched.FairShare[*mapred.Job]()} {
		opts := MOONPreset(cs, true)
		opts.Sched.JobPolicy = pol
		s, err := NewForWorkload(opts, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunWorkload(m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != len(m.Jobs) {
			t.Fatalf("%s: %d/%d jobs completed", pol.Name(), res.Completed, len(m.Jobs))
		}
		if res.Span <= 0 || res.Throughput <= 0 {
			t.Fatalf("%s: span %v throughput %v", pol.Name(), res.Span, res.Throughput)
		}
		for i, jr := range res.Jobs {
			if jr.HitHorizon || jr.Profile.State != mapred.JobSucceeded {
				t.Fatalf("%s: job %d result %+v", pol.Name(), i, jr)
			}
			if jr.Profile.Makespan <= 0 {
				t.Fatalf("%s: job %d makespan %v", pol.Name(), i, jr.Profile.Makespan)
			}
		}
	}
}

// TestRunWorkloadStreamHorizonCaps: jobs that cannot finish (or even
// submit) before the trace horizon report submission→horizon makespans
// and a horizon-bounded span.
func TestRunWorkloadStreamHorizonCaps(t *testing.T) {
	cs := ClusterSpec{VolatileNodes: 10, DedicatedNodes: 2, UnavailabilityRate: 0.3,
		Seed: 3, Horizon: 600}
	m := workload.Stream(smallSpec(), workload.Arrivals("staggered", 3, 500, 0), 0) // job 2 submits at t=1000 > horizon
	s, err := NewForWorkload(MOONPreset(cs, true), m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWorkload(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Span != 600 {
		t.Fatalf("span %v, want the 600s horizon", res.Span)
	}
	last := res.Jobs[2]
	if !last.HitHorizon {
		t.Fatal("never-submitted job not marked capped")
	}
	if last.Profile.Makespan != 0 {
		t.Fatalf("never-submitted job makespan %v, want 0 (offset ≥ horizon)", last.Profile.Makespan)
	}
	mid := res.Jobs[1] // submitted at t=500, cannot finish in 100s
	if !mid.HitHorizon || mid.Profile.Makespan != 100 {
		t.Fatalf("mid job capped=%v makespan=%v, want capped with 100s", mid.HitHorizon, mid.Profile.Makespan)
	}
}
