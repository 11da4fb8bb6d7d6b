package trace

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkGenerate8h measures one node's 8-hour trace at the paper's 0.4
// rate.
func BenchmarkGenerate8h(b *testing.B) {
	r := rng.New(1)
	cfg := DefaultOutageConfig(0.4)
	for i := 0; i < b.N; i++ {
		if _, err := Generate(r, cfg, 8*3600); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAvailableAt measures the hot availability lookup.
func BenchmarkAvailableAt(b *testing.B) {
	tr, err := Generate(rng.New(1), DefaultOutageConfig(0.4), 8*3600)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.AvailableAt(float64(i % 28800))
	}
}
