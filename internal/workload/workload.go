// Package workload encodes the paper's benchmark applications (Table I) as
// resource models for the simulator, plus the sleep app used to isolate
// scheduling effects (Section VI-A).
//
// Calibration: compute times are set so that the baseline profile of
// Table II is approximated at the VO-V1 configuration — sort maps are
// ~20 s of CPU plus a local 62.5 MB spill, word count maps are
// compute-heavy (~100 s) with small intermediate output. Absolute seconds
// on the simulated fabric differ from the authors' Xserve cluster; the
// evaluation compares policies against each other on identical hardware
// models, which is what preserves the paper's shapes.
package workload

import (
	"fmt"

	"repro/internal/dfs"
	"repro/internal/mapred"
)

// GB and MB express data sizes in bytes.
const (
	MB = 1e6
	GB = 1e9
)

// Spec bundles a job description with its input staging requirements.
type Spec struct {
	Job         mapred.JobConfig
	InputSize   float64
	InputFactor dfs.Factor
}

// Validate checks the input staging and the job portion of the spec.
func (s Spec) Validate() error {
	if s.InputSize <= 0 {
		return fmt.Errorf("workload: input size %v", s.InputSize)
	}
	if err := s.InputFactor.Validate(); err != nil {
		return err
	}
	return s.Job.Validate()
}

// Sort is the paper's sort application: 24 GB input, 384 maps,
// 0.9 × available reduce slots reduces. Sort shuffles its entire input:
// every map emits its full block as intermediate data, and the reducers
// write the same volume back as output.
//
// reduceSlots is the cluster's total reduce slot count (2 per node in the
// paper), from which NumReduces = 0.9 × slots.
func Sort(reduceSlots int) Spec {
	const (
		inputSize = 24 * GB
		numMaps   = 384
	)
	numReduces := int(0.9 * float64(reduceSlots))
	if numReduces < 1 {
		numReduces = 1
	}
	return Spec{
		InputSize:   inputSize,
		InputFactor: dfs.Factor{D: 1, V: 3},
		Job: mapred.JobConfig{
			Name:               "sort",
			NumMaps:            numMaps,
			NumReduces:         numReduces,
			InputFile:          "sort-input",
			MapCPU:             20,
			ReduceCPU:          15,
			IntermediatePerMap: inputSize / numMaps, // sort shuffles everything
			IntermediateClass:  dfs.Opportunistic,
			IntermediateFactor: dfs.Factor{V: 1},
			OutputPerReduce:    inputSize / float64(numReduces),
			OutputFactor:       dfs.Factor{D: 1, V: 3},
		},
	}
}

// WordCount is the paper's word count application: 20 GB input, 320 maps,
// 20 reduces. Maps are compute-bound and emit small aggregated
// intermediate data; output is small.
func WordCount() Spec {
	const (
		inputSize  = 20 * GB
		numMaps    = 320
		numReduces = 20
	)
	return Spec{
		InputSize:   inputSize,
		InputFactor: dfs.Factor{D: 1, V: 3},
		Job: mapred.JobConfig{
			Name:               "wordcount",
			NumMaps:            numMaps,
			NumReduces:         numReduces,
			InputFile:          "wc-input",
			MapCPU:             99,
			ReduceCPU:          15,
			IntermediatePerMap: 12 * MB,
			IntermediateClass:  dfs.Opportunistic,
			IntermediateFactor: dfs.Factor{V: 1},
			OutputPerReduce:    20 * MB,
			OutputFactor:       dfs.Factor{D: 1, V: 3},
		},
	}
}

// SleepApp mirrors the paper's use of Hadoop's sleep program: it replays an
// application's map/reduce task counts and *measured average execution
// times* (from benchmarking runs of the real application, so they include
// the I/O the real tasks perform) but moves only a trivial amount of
// intermediate data (two integers per record) and no output. The paper
// replicates sleep's intermediate data as reliable {1,1} so data
// management cannot perturb the scheduling comparison.
func SleepApp(from Spec) Spec {
	job := from.Job
	// Measured averages from baseline runs of the real applications
	// (compare the paper's Table II): sort maps ≈ 42 s / reduces ≈ 85 s
	// at its benchmarked replication setting; word count maps ≈ 110 s /
	// reduces ≈ 28 s.
	mapTime, reduceTime := job.MapCPU, job.ReduceCPU
	switch job.Name {
	case "sort":
		mapTime, reduceTime = 42, 85
	case "wordcount":
		mapTime, reduceTime = 110, 28
	}
	return Spec{
		InputSize:   float64(job.NumMaps) * MB, // one tiny block per map
		InputFactor: dfs.Factor{D: 1, V: 3},
		Job: mapred.JobConfig{
			Name:               "sleep-" + job.Name,
			NumMaps:            job.NumMaps,
			NumReduces:         job.NumReduces,
			InputFile:          "sleep-" + job.Name + "-input",
			MapCPU:             mapTime,
			ReduceCPU:          reduceTime,
			IntermediatePerMap: 2e3, // negligible, but exercised end to end
			IntermediateClass:  dfs.Reliable,
			IntermediateFactor: dfs.Factor{D: 1, V: 1},
			OutputPerReduce:    0,
			OutputFactor:       dfs.Factor{D: 1, V: 1},
			SkipInputRead:      true,
		},
	}
}

// Scale shrinks a workload by factor k (maps, reduces and data volumes all
// divided by k, compute times preserved) so large sweeps finish quickly
// while preserving waves-of-tasks structure. Scale(1) is the identity.
func Scale(s Spec, k int) Spec {
	if k <= 1 {
		return s
	}
	out := s
	out.InputSize = s.InputSize / float64(k)
	out.Job.NumMaps = max(1, s.Job.NumMaps/k)
	out.Job.NumReduces = max(1, s.Job.NumReduces/k)
	out.Job.OutputPerReduce = s.Job.OutputPerReduce // per-task sizes preserved
	return out
}
