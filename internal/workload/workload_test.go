package workload

import (
	"testing"

	"repro/internal/dfs"
)

// Table I's sizes and the sleep app's task times are checked by TestPaperClaims.
func TestSortMatchesTableI(t *testing.T) {
	w := Sort(2 * 66)
	// 0.9 × 132 slots = 118 reduces.
	if w.Job.NumReduces != 118 {
		t.Fatalf("sort reduces = %d, want 118", w.Job.NumReduces)
	}
	// Sort shuffles its entire input.
	if got := w.Job.IntermediatePerMap * float64(w.Job.NumMaps); got != w.InputSize {
		t.Fatalf("sort intermediate total = %v, want input size", got)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSortMinimumOneReduce(t *testing.T) {
	if got := Sort(0).Job.NumReduces; got != 1 {
		t.Fatalf("reduces = %d, want clamp to 1", got)
	}
}

func TestWordCountMatchesTableI(t *testing.T) {
	w := WordCount()
	// Word count's intermediate data is far smaller than its input.
	if total := w.Job.IntermediatePerMap * float64(w.Job.NumMaps); total >= w.InputSize/2 {
		t.Fatalf("wordcount intermediate %v not small relative to input", total)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepAppProperties(t *testing.T) {
	for _, base := range []Spec{Sort(132), WordCount()} {
		s := SleepApp(base)
		if s.Job.NumMaps != base.Job.NumMaps || s.Job.NumReduces != base.Job.NumReduces {
			t.Fatalf("sleep(%s) changed task counts", base.Job.Name)
		}
		if s.Job.OutputPerReduce != 0 {
			t.Fatalf("sleep(%s) writes output", base.Job.Name)
		}
		if s.Job.IntermediatePerMap > 1e4 {
			t.Fatalf("sleep(%s) intermediate %v not negligible", base.Job.Name, s.Job.IntermediatePerMap)
		}
		if s.Job.IntermediateClass != dfs.Reliable {
			t.Fatalf("sleep(%s) intermediate not reliable", base.Job.Name)
		}
		if s.Job.IntermediateFactor != (dfs.Factor{D: 1, V: 1}) {
			t.Fatalf("sleep(%s) intermediate factor %v, want {1,1}", base.Job.Name, s.Job.IntermediateFactor)
		}
		if !s.Job.SkipInputRead {
			t.Fatalf("sleep(%s) reads input", base.Job.Name)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScale(t *testing.T) {
	w := Sort(132)
	s := Scale(w, 4)
	if s.Job.NumMaps != w.Job.NumMaps/4 {
		t.Fatalf("scaled maps %d", s.Job.NumMaps)
	}
	if s.InputSize != w.InputSize/4 {
		t.Fatalf("scaled input %v", s.InputSize)
	}
	// Per-task sizes are preserved so block size math stays valid.
	if s.InputSize/float64(s.Job.NumMaps) != w.InputSize/float64(w.Job.NumMaps) {
		t.Fatal("scaling changed the input split size")
	}
	if got := Scale(w, 1); got.Job.NumMaps != w.Job.NumMaps {
		t.Fatal("Scale(1) not identity")
	}
	if got := Scale(w, 10000).Job.NumMaps; got != 1 {
		t.Fatalf("extreme scale maps = %d, want clamp to 1", got)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	w := Sort(132)
	w.InputSize = 0
	if w.Validate() == nil {
		t.Fatal("zero input accepted")
	}
	w = Sort(132)
	w.Job.NumMaps = 0
	if w.Validate() == nil {
		t.Fatal("zero maps accepted")
	}
	w = Sort(132)
	w.InputFactor = dfs.Factor{}
	if w.Validate() == nil {
		t.Fatal("unsatisfiable input factor accepted")
	}
	// The sleep app writes no output, and its output factor is still held
	// to being satisfiable.
	w = SleepApp(Sort(132))
	w.Job.OutputFactor = dfs.Factor{}
	if w.Validate() == nil {
		t.Fatal("unsatisfiable output factor on the sleep app accepted")
	}
}
