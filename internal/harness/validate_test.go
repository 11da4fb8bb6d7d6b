package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestConfigValidateRejections covers every class of garbage sweep input
// Config.Validate guards against; each case must fail with a descriptive
// error instead of silently sweeping nonsense.
func TestConfigValidateRejections(t *testing.T) {
	base := func() Config {
		return Config{Seeds: []uint64{1, 2}, Scale: 1, Rates: []float64{0.1, 0.5}}
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"nan rate", func(c *Config) { c.Rates = []float64{math.NaN()} }, "rate"},
		{"negative rate", func(c *Config) { c.Rates = []float64{-0.1} }, "rate"},
		{"rate at one", func(c *Config) { c.Rates = []float64{1} }, "rate"},
		{"duplicate rate", func(c *Config) { c.Rates = []float64{0.5, 0.1, 0.5} }, "duplicate unavailability rate 0.5"},
		{"zero seed", func(c *Config) { c.Seeds = []uint64{0} }, "seed 0"},
		{"duplicate seed", func(c *Config) { c.Seeds = []uint64{3, 3} }, "duplicate seed"},
		{"negative scale", func(c *Config) { c.Scale = -2 }, "scale"},
		{"negative parallelism", func(c *Config) { c.Parallelism = -1 }, "parallelism -1"},
		{"nan metrics bucket", func(c *Config) { c.MetricsBucket = math.NaN() }, "metrics bucket"},
		{"negative metrics bucket", func(c *Config) { c.MetricsBucket = -600 }, "metrics bucket"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestRunSweepEnforcesValidate pins that the sweep entry point actually
// calls Validate (after defaulting, so the zero Config still runs). A
// repeated rate used to run, print and report every cell of it twice.
func TestRunSweepEnforcesValidate(t *testing.T) {
	bad := Config{Seeds: []uint64{7, 7}, Rates: []float64{0.1}}
	if _, err := bad.RunSweep("bad", schedLines()[:1]); err == nil {
		t.Error("RunSweep accepted duplicate seeds")
	}
	bad = Config{Scale: 16, Rates: []float64{0.5, 0.5}}
	if _, err := bad.RunSweep("bad", schedLines()[:1]); err == nil {
		t.Error("RunSweep accepted a repeated rate")
	}
	bad = Config{Scale: -1}
	if _, err := bad.RunSweep("bad", nil); err == nil {
		t.Error("RunSweep accepted negative scale")
	}
	// The defaulted zero config stays valid: an empty variant list must
	// return an empty sweep, not an error.
	if _, err := (Config{}).RunSweep("empty", nil); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestRunSweepChecksLinesFirst: a line the model cannot run, or a repeated
// label, fails the sweep before its first cell runs, named by the cell a
// serial sweep would have failed in; ValidateLines says which line and rate.
func TestRunSweepChecksLinesFirst(t *testing.T) {
	lines := schedLines()
	bad := lines[2].Cell.(SimCell)
	build := bad.Build
	bad.Build = func(cs core.ClusterSpec) core.Options {
		opts := build(cs)
		opts.Sched.SuspensionInterval = opts.Sched.TrackerExpiry
		return opts
	}
	lines[2].Cell = bad
	var ran []string
	cfg := Config{Seeds: []uint64{3}, Scale: 16, Rates: []float64{0.1, 0.5}, Progress: func(l string) { ran = append(ran, l) }}
	_, err := cfg.RunSweep("bad", lines)
	if err == nil || !strings.HasPrefix(err.Error(), "MOON-Hybrid rate=0.1 seed=3: mapred: suspension interval") {
		t.Fatalf("error %v does not name the bad line's first cell", err)
	}
	if len(ran) != 0 {
		t.Fatalf("%d cells ran before the bad line was refused", len(ran))
	}
	if n, rate, _ := cfg.ValidateLines(lines); n != 2 || rate != 0.1 {
		t.Errorf("ValidateLines blamed line %d at rate %v, want line 2 at 0.1", n, rate)
	}
	if n, _, err := cfg.ValidateLines(append(schedLines(), schedLines()[0])); n != 3 || err == nil ||
		!strings.Contains(err.Error(), `line label "Hadoop1Min" repeats`) {
		t.Errorf("repeated label: line %d, %v", n, err)
	}
}
