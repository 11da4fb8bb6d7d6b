package workload

import (
	"fmt"

	"repro/internal/rng"
)

// MultiJob is one entry of a multi-job workload: a job spec plus its
// submission time relative to the run start.
type MultiJob struct {
	Spec   Spec
	Offset float64
}

// MultiSpec describes a multi-job workload — the queued/overlapping job
// streams real opportunistic clusters serve. Jobs are submitted in slice
// order at their offsets and then compete for slots under the tracker's
// SchedPolicy.
type MultiSpec struct {
	Name string
	Jobs []MultiJob
}

// Single is the stream of one: the spec, not renamed, submitted at the run
// start. Every single-job experiment is this stream.
func Single(s Spec) MultiSpec {
	return MultiSpec{Name: s.Job.Name, Jobs: []MultiJob{{Spec: s}}}
}

// Validate rejects impossible multi-job workloads: every member spec must
// validate, names and input files must be unique (attempt outputs and
// staged inputs are DFS files keyed by them), offsets must be
// non-decreasing and non-negative, and all jobs that read real input must
// share one split size (the DFS has a single block size).
func (m MultiSpec) Validate() error {
	if len(m.Jobs) == 0 {
		return fmt.Errorf("workload: multi-spec %q has no jobs", m.Name)
	}
	names := make(map[string]bool, len(m.Jobs))
	inputs := make(map[string]bool, len(m.Jobs))
	split := 0.0
	prev := 0.0
	for i, mj := range m.Jobs {
		if err := mj.Spec.Validate(); err != nil {
			return fmt.Errorf("workload: multi-spec %q job %d: %w", m.Name, i, err)
		}
		if mj.Offset < 0 || mj.Offset < prev {
			return fmt.Errorf("workload: multi-spec %q job %d offset %v (offsets must be non-decreasing)",
				m.Name, i, mj.Offset)
		}
		prev = mj.Offset
		if names[mj.Spec.Job.Name] {
			return fmt.Errorf("workload: multi-spec %q duplicates job name %q", m.Name, mj.Spec.Job.Name)
		}
		names[mj.Spec.Job.Name] = true
		if inputs[mj.Spec.Job.InputFile] {
			return fmt.Errorf("workload: multi-spec %q duplicates input file %q", m.Name, mj.Spec.Job.InputFile)
		}
		inputs[mj.Spec.Job.InputFile] = true
		if mj.Spec.Job.SkipInputRead {
			continue
		}
		s := mj.Spec.InputSize / float64(mj.Spec.Job.NumMaps)
		if split == 0 {
			split = s
		} else if d := s - split; d > 1e-9*split || d < -1e-9*split {
			// Relative epsilon: equal splits that went through different
			// float expressions (e.g. maps × split vs size ÷ k) may differ
			// by an ulp; a real mismatch is orders of magnitude larger.
			return fmt.Errorf("workload: multi-spec %q job %d split %v differs from %v (one DFS block size)",
				m.Name, i, s, split)
		}
	}
	return nil
}

// SplitSize returns the common input split (block) size of the jobs that
// read real input. When every job skips input reads the block size only
// affects staged-file replication; the first job's split is returned then,
// which is the one job's split when the stream holds one job.
func (m MultiSpec) SplitSize() float64 {
	for _, mj := range m.Jobs {
		if !mj.Spec.Job.SkipInputRead && mj.Spec.Job.NumMaps > 0 {
			return mj.Spec.InputSize / float64(mj.Spec.Job.NumMaps)
		}
	}
	if len(m.Jobs) > 0 && m.Jobs[0].Spec.Job.NumMaps > 0 {
		return m.Jobs[0].Spec.InputSize / float64(m.Jobs[0].Spec.Job.NumMaps)
	}
	return 0
}

// rename derives a uniquely named copy of a spec for slot i of a multi-job
// workload (job name and staged input file both get the suffix).
func rename(s Spec, i int) Spec {
	out := s
	out.Job.Name = fmt.Sprintf("%s-j%d", s.Job.Name, i)
	out.Job.InputFile = fmt.Sprintf("%s-j%d", s.Job.InputFile, i)
	return out
}

// rescaleInput pins a scaled spec's input size to NumMaps × the original
// split. Scale floors NumMaps but divides InputSize exactly, so when the
// factor does not divide the map count the scaled job's split would drift
// off the stream's common DFS block size; recomputing from the split keeps
// every job's split exactly the original one.
func rescaleInput(orig, scaled Spec) Spec {
	if scaled.Job.SkipInputRead || orig.Job.NumMaps <= 0 {
		return scaled
	}
	scaled.InputSize = float64(scaled.Job.NumMaps) * (orig.InputSize / float64(orig.Job.NumMaps))
	return scaled
}

// Staggered derives a multi-job workload of n copies of base, submitted
// every interval seconds — the queued-arrivals scenario (a stream of
// identical jobs entering a busy cluster).
func Staggered(base Spec, n int, interval float64) MultiSpec {
	m := MultiSpec{Name: fmt.Sprintf("%s-x%d", base.Job.Name, n)}
	for i := 0; i < n; i++ {
		m.Jobs = append(m.Jobs, MultiJob{Spec: rename(base, i), Offset: float64(i) * interval})
	}
	return m
}

// MixedSizes derives a multi-job workload alternating between the full
// base spec and a copy scaled down by k, submitted every interval seconds
// — the heterogeneous mix where small jobs queue behind (FIFO) or overtake
// (fair-share) large ones.
func MixedSizes(base Spec, n int, interval float64, k int) MultiSpec {
	m := MultiSpec{Name: fmt.Sprintf("%s-mix%d", base.Job.Name, n)}
	small := rescaleInput(base, Scale(base, k))
	for i := 0; i < n; i++ {
		s := base
		if i%2 == 1 {
			s = small
		}
		m.Jobs = append(m.Jobs, MultiJob{Spec: rename(s, i), Offset: float64(i) * interval})
	}
	return m
}

// PoissonArrivals derives a multi-job workload of n copies of base whose
// submissions follow a Poisson arrival process: the first job arrives at
// t=0 (like Staggered, so the run starts busy) and each later job follows
// the previous one after an exponential inter-arrival time with the given
// mean (seconds) — the memoryless job stream a shared opportunistic
// cluster actually sees, with the bursts and lulls a fixed stagger hides.
//
// The draw stream is seeded independently of the churn seed, so the same
// (base, n, meanInterval, seed) always yields the same offsets — sweeping
// churn seeds replays one fixed arrival schedule against many churn
// realizations.
func PoissonArrivals(base Spec, n int, meanInterval float64, seed uint64) MultiSpec {
	if meanInterval <= 0 {
		return Staggered(base, n, 0)
	}
	r := rng.New(seed)
	m := MultiSpec{Name: fmt.Sprintf("%s-pois%d", base.Job.Name, n)}
	t := 0.0
	for i := 0; i < n; i++ {
		if i > 0 {
			t += r.Exponential(meanInterval)
		}
		m.Jobs = append(m.Jobs, MultiJob{Spec: rename(base, i), Offset: t})
	}
	return m
}

// WithPriorities returns a copy of the multi-job workload with per-job
// strict-priority ranks applied by job name (jobs of an n-job stream are
// named <base>-j0 .. <base>-j<n-1>). Jobs without an entry keep rank 0.
// Only the StrictPriority arbitration policy reads the ranks.
func WithPriorities(m MultiSpec, priorities map[string]int) MultiSpec {
	if len(priorities) == 0 {
		return m
	}
	out := MultiSpec{Name: m.Name, Jobs: append([]MultiJob(nil), m.Jobs...)}
	for i := range out.Jobs {
		if p, ok := priorities[out.Jobs[i].Spec.Job.Name]; ok {
			out.Jobs[i].Spec.Job.Priority = p
		}
	}
	return out
}

// ScaleMulti shrinks every job of a multi-job workload by factor k
// (offsets preserved); ScaleMulti(m, 1) is the identity. Each job keeps its
// original split, so the stream keeps its one DFS block size; a stream of
// one has no common block to protect and scales exactly as Scale does.
func ScaleMulti(m MultiSpec, k int) MultiSpec {
	if k <= 1 {
		return m
	}
	out := MultiSpec{Name: m.Name}
	for _, mj := range m.Jobs {
		scaled := Scale(mj.Spec, k)
		if len(m.Jobs) > 1 {
			scaled = rescaleInput(mj.Spec, scaled)
		}
		out.Jobs = append(out.Jobs, MultiJob{Spec: scaled, Offset: mj.Offset})
	}
	return out
}
