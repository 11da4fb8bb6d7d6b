package workload

import (
	"strings"
	"testing"
)

func TestStaggered(t *testing.T) {
	base := SleepApp(Sort(132))
	m := Staggered(base, 3, 600)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != 3 {
		t.Fatalf("jobs %d, want 3", len(m.Jobs))
	}
	for i, mj := range m.Jobs {
		if want := float64(i) * 600; mj.Offset != want {
			t.Fatalf("job %d offset %v, want %v", i, mj.Offset, want)
		}
		if !strings.HasSuffix(mj.Spec.Job.Name, "-j"+string(rune('0'+i))) {
			t.Fatalf("job %d name %q not suffixed", i, mj.Spec.Job.Name)
		}
		if mj.Spec.Job.NumMaps != base.Job.NumMaps {
			t.Fatalf("job %d maps %d, want %d", i, mj.Spec.Job.NumMaps, base.Job.NumMaps)
		}
	}
}

func TestMixedSizes(t *testing.T) {
	base := Sort(132)
	m := MixedSizes(base, 4, 300, 4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Jobs[0].Spec.Job.NumMaps != base.Job.NumMaps {
		t.Fatal("even slots should be full size")
	}
	if got, want := m.Jobs[1].Spec.Job.NumMaps, base.Job.NumMaps/4; got != want {
		t.Fatalf("odd slot maps %d, want %d", got, want)
	}
	// Full and scaled sort share the split, so one DFS block size fits all.
	if m.SplitSize() <= 0 {
		t.Fatal("no split size for an input-reading workload")
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	base := SleepApp(Sort(132))
	a := PoissonArrivals(base, 5, 600, 7)
	b := PoissonArrivals(base, 5, 600, 7)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != 5 || a.Jobs[0].Offset != 0 {
		t.Fatalf("jobs %d, first offset %v (want 5 jobs starting at 0)", len(a.Jobs), a.Jobs[0].Offset)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Offset != b.Jobs[i].Offset {
			t.Fatalf("same seed diverged at job %d: %v vs %v", i, a.Jobs[i].Offset, b.Jobs[i].Offset)
		}
		if i > 0 && a.Jobs[i].Offset <= a.Jobs[i-1].Offset {
			t.Fatalf("offsets not increasing: job %d at %v after %v", i, a.Jobs[i].Offset, a.Jobs[i-1].Offset)
		}
	}
	c := PoissonArrivals(base, 5, 600, 8)
	same := true
	for i := 1; i < len(a.Jobs); i++ {
		if a.Jobs[i].Offset != c.Jobs[i].Offset {
			same = false
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical arrival schedules")
	}
	// The draws must survive scaling (offsets preserved) like Staggered.
	sc := ScaleMulti(a, 4)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.Jobs[3].Offset != a.Jobs[3].Offset {
		t.Fatal("ScaleMulti changed poisson offsets")
	}
}

func TestMultiSpecValidate(t *testing.T) {
	base := SleepApp(WordCount())
	good := Staggered(base, 2, 60)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	if err := (MultiSpec{Name: "empty"}).Validate(); err == nil {
		t.Fatal("empty multi-spec accepted")
	}

	dup := good
	dup.Jobs = []MultiJob{good.Jobs[0], good.Jobs[0]}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicates") {
		t.Fatalf("duplicate names accepted: %v", err)
	}

	back := Staggered(base, 2, 60)
	back.Jobs[1].Offset = -5
	if err := back.Validate(); err == nil {
		t.Fatal("negative offset accepted")
	}

	// Two input-reading jobs with different splits cannot share one DFS.
	a, b := Sort(132), WordCount()
	mixed := MultiSpec{Name: "bad-split", Jobs: []MultiJob{{Spec: a}, {Spec: b}}}
	if a.InputSize/float64(a.Job.NumMaps) != b.InputSize/float64(b.Job.NumMaps) {
		if err := mixed.Validate(); err == nil || !strings.Contains(err.Error(), "split") {
			t.Fatalf("mismatched splits accepted: %v", err)
		}
	}
}

func TestMixedSizesNonDividingScale(t *testing.T) {
	// 5 does not divide sort's 384 maps; the small jobs' input must be
	// re-derived from the common split or Validate rejects the stream.
	m := MixedSizes(Sort(132), 4, 300, 5)
	if err := m.Validate(); err != nil {
		t.Fatalf("generated workload rejected: %v", err)
	}
	if got, want := m.Jobs[1].Spec.Job.NumMaps, 384/5; got != want {
		t.Fatalf("small job maps %d, want %d", got, want)
	}
	sc := ScaleMulti(Staggered(Sort(132), 2, 60), 5)
	if err := sc.Validate(); err != nil {
		t.Fatalf("non-dividing ScaleMulti rejected: %v", err)
	}
}

func TestScaleMulti(t *testing.T) {
	m := Staggered(Sort(132), 2, 120)
	s := ScaleMulti(m, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Jobs[0].Spec.Job.NumMaps != m.Jobs[0].Spec.Job.NumMaps/4 {
		t.Fatal("scale not applied")
	}
	if s.Jobs[1].Offset != 120 {
		t.Fatal("offsets must be preserved")
	}
	if id := ScaleMulti(m, 1); len(id.Jobs) != 2 || id.Jobs[0].Spec.Job.NumMaps != m.Jobs[0].Spec.Job.NumMaps {
		t.Fatal("ScaleMulti(1) is not the identity")
	}
	// A stream of one scales exactly as Scale does, non-dividing factors
	// included: no second job shares its block size.
	one := Sort(132)
	if got := ScaleMulti(Single(one), 7).Jobs[0].Spec; got != Scale(one, 7) {
		t.Fatalf("stream of one scaled to %+v, Scale gives %+v", got, Scale(one, 7))
	}
}
