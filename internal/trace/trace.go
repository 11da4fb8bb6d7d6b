// Package trace generates and manipulates node-availability traces.
//
// The MOON paper emulates a volunteer computing system with synthetic
// availability traces: unavailable-interval durations are drawn from a
// normal distribution whose mean (409 s) comes from the Entropia/SDSC
// desktop-grid trace, and the intervals are inserted into 8-hour traces by
// a Poisson-like process so that each trace's unavailable fraction equals a
// target machine-unavailability rate. This package reproduces that recipe
// exactly, and additionally provides a diurnal Markov-modulated generator
// that resembles the production trace in the paper's Figure 1.
package trace

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Interval is a half-open span [Start, End) of simulated seconds during
// which a node is unavailable.
type Interval struct {
	Start, End float64
}

// Duration returns the interval length.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Trace is one node's availability schedule over [0, Duration). Outages are
// sorted, non-overlapping, and contained in the trace horizon. A node is
// available at any instant not covered by an outage.
type Trace struct {
	Duration float64
	Outages  []Interval
}

// OutageConfig parameterizes the paper's synthetic outage model.
type OutageConfig struct {
	// MeanOutage is the mean unavailable-interval duration in seconds
	// (409 s in the paper, from the Entropia trace).
	MeanOutage float64
	// StddevOutage is the standard deviation of outage durations.
	StddevOutage float64
	// MinOutage and MaxOutage clamp individual outage durations.
	MinOutage, MaxOutage float64
	// TargetRate is the fraction of trace time the node is unavailable.
	TargetRate float64
}

// DefaultOutageConfig returns the paper's settings for a given
// machine-unavailability rate.
func DefaultOutageConfig(rate float64) OutageConfig {
	return OutageConfig{
		MeanOutage:   409,
		StddevOutage: 200,
		MinOutage:    30,
		MaxOutage:    3600,
		TargetRate:   rate,
	}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c OutageConfig) Validate() error {
	if c.TargetRate < 0 || c.TargetRate >= 1 {
		return fmt.Errorf("trace: target rate %v outside [0,1)", c.TargetRate)
	}
	if c.TargetRate > 0 && c.MeanOutage <= 0 {
		return fmt.Errorf("trace: mean outage %v must be positive", c.MeanOutage)
	}
	if c.MinOutage < 0 || (c.MaxOutage > 0 && c.MaxOutage < c.MinOutage) {
		return fmt.Errorf("trace: bad outage clamp [%v,%v]", c.MinOutage, c.MaxOutage)
	}
	return nil
}

// Generate builds one node trace of the given duration. Outage durations are
// truncated-normal draws; placement distributes the free time between
// outages as normalized exponential gaps, which makes outage starts follow a
// Poisson-like process while guaranteeing the unavailable fraction equals
// TargetRate exactly (up to the resolution of one clamped draw).
func Generate(r *rng.Rand, cfg OutageConfig, duration float64) (Trace, error) {
	if err := cfg.Validate(); err != nil {
		return Trace{}, err
	}
	if duration <= 0 {
		return Trace{}, fmt.Errorf("trace: duration %v must be positive", duration)
	}
	t := Trace{Duration: duration}
	budget := cfg.TargetRate * duration
	if budget <= 0 {
		return t, nil
	}
	var durs []float64
	total := 0.0
	for total < budget {
		d := r.TruncNormal(cfg.MeanOutage, cfg.StddevOutage, cfg.MinOutage, cfg.MaxOutage)
		if total+d > budget {
			d = budget - total
			if d < 1 { // ignore sub-second remainder
				break
			}
		}
		durs = append(durs, d)
		total += d
	}
	free := duration - total
	if free < 0 {
		return Trace{}, fmt.Errorf("trace: rate %v leaves no available time", cfg.TargetRate)
	}
	// Split the free time into len(durs)+1 gaps with a normalized
	// exponential (Dirichlet(1,...,1)) draw: uniform random placement.
	gaps := make([]float64, len(durs)+1)
	sum := 0.0
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		sum += gaps[i]
	}
	pos := 0.0
	for i, d := range durs {
		pos += gaps[i] / sum * free
		t.Outages = append(t.Outages, Interval{Start: pos, End: pos + d})
		pos += d
	}
	return t, nil
}

// GenerateFleet builds one trace per node, each from a split RNG stream so
// node outages are mutually independent (the paper's assumption).
func GenerateFleet(r *rng.Rand, cfg OutageConfig, duration float64, nodes int) ([]Trace, error) {
	if nodes < 0 {
		return nil, fmt.Errorf("trace: nodes must be >= 0, got %d", nodes)
	}
	traces := make([]Trace, nodes)
	for i := range traces {
		tr, err := Generate(r.Split(), cfg, duration)
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	return traces, nil
}

// AvailableAt reports whether the node is available at time at. Times at or
// beyond the trace horizon are treated as available (the node model repeats
// or extends traces explicitly when needed).
func (t *Trace) AvailableAt(at float64) bool {
	i := sort.Search(len(t.Outages), func(i int) bool { return t.Outages[i].End > at })
	if i == len(t.Outages) {
		return true
	}
	return at < t.Outages[i].Start
}

// NextTransition returns the first time strictly after at when availability
// changes, and the availability state that begins then. ok is false when no
// transition remains before the horizon.
func (t *Trace) NextTransition(at float64) (when float64, availableAfter bool, ok bool) {
	i := sort.Search(len(t.Outages), func(i int) bool { return t.Outages[i].End > at })
	if i == len(t.Outages) {
		return 0, true, false
	}
	if at < t.Outages[i].Start {
		return t.Outages[i].Start, false, true
	}
	return t.Outages[i].End, true, true
}

// UnavailableFraction returns the fraction of the horizon covered by
// outages.
func (t *Trace) UnavailableFraction() float64 {
	if t.Duration <= 0 {
		return 0
	}
	sum := 0.0
	for _, iv := range t.Outages {
		sum += iv.Duration()
	}
	return sum / t.Duration
}

// MeanOutage returns the average outage duration, or 0 with no outages.
func (t *Trace) MeanOutage() float64 {
	if len(t.Outages) == 0 {
		return 0
	}
	sum := 0.0
	for _, iv := range t.Outages {
		sum += iv.Duration()
	}
	return sum / float64(len(t.Outages))
}

// Validate checks the trace's structural invariants: sorted, non-overlapping
// outages with positive length inside [0, Duration].
func (t *Trace) Validate() error {
	prev := 0.0
	for i, iv := range t.Outages {
		if iv.Start < prev {
			return fmt.Errorf("trace: outage %d overlaps or is unsorted (start %v < %v)", i, iv.Start, prev)
		}
		if iv.End <= iv.Start {
			return fmt.Errorf("trace: outage %d non-positive (%v..%v)", i, iv.Start, iv.End)
		}
		if iv.End > t.Duration+1e-9 {
			return fmt.Errorf("trace: outage %d ends %v past horizon %v", i, iv.End, t.Duration)
		}
		prev = iv.End
	}
	return nil
}

// AggregateUnavailability samples the fleet at fixed intervals and returns,
// for each bucket midpoint, the fraction of nodes unavailable. This is the
// measurement behind the paper's Figure 1.
func AggregateUnavailability(traces []Trace, bucket, duration float64) []float64 {
	if bucket <= 0 || duration <= 0 || len(traces) == 0 {
		return nil
	}
	n := int(duration / bucket)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		mid := (float64(i) + 0.5) * bucket
		down := 0
		for j := range traces {
			if !traces[j].AvailableAt(mid) {
				down++
			}
		}
		out = append(out, float64(down)/float64(len(traces)))
	}
	return out
}
