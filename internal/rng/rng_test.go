package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestZeroSeedNonZeroState(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestSplitDecorrelates(t *testing.T) {
	a := New(7)
	b := a.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split streams matched %d/1000 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.08*want {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 5, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) returned %d elements", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(19)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("shuffle duplicated %d: %v", v, xs)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(23)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(5, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("normal mean = %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("normal variance = %v, want ~4", variance)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(29)
	for i := 0; i < 10000; i++ {
		x := r.TruncNormal(409, 200, 30, 3600)
		if x < 30 || x > 3600 {
			t.Fatalf("TruncNormal out of bounds: %v", x)
		}
	}
}

func TestTruncNormalDegenerateRangeClamps(t *testing.T) {
	r := New(31)
	// Mean far outside [lo,hi]: resampling fails, clamping must kick in.
	for i := 0; i < 100; i++ {
		x := r.TruncNormal(1000, 1, 0, 10)
		if x != 10 {
			t.Fatalf("expected clamp to hi=10, got %v", x)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(37)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(409)
	}
	mean := sum / n
	if math.Abs(mean-409)/409 > 0.02 {
		t.Fatalf("exponential mean = %v, want ~409", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(41)
	for _, lambda := range []float64{0.5, 3, 12, 80} {
		const n = 100000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Fatalf("poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(43)
	if r.Poisson(0) != 0 || r.Poisson(-5) != 0 {
		t.Fatal("Poisson of non-positive lambda must be 0")
	}
}

// Property: Intn always lands in range and Perm is always a permutation.
func TestQuickProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		r := New(seed)
		v := r.Intn(n)
		if v < 0 || v >= n {
			return false
		}
		p := r.Perm(n % 100)
		seen := make(map[int]bool, len(p))
		for _, x := range p {
			if x < 0 || x >= len(p) || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
