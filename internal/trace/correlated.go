package trace

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// CorrelatedConfig models the paper's Section III observation that
// "large-scale, correlated resource inaccessibility can be normal — many
// machines in a computer lab will be occupied simultaneously during a lab
// session": on top of independent per-node churn, whole groups of nodes go
// away together for session-length intervals.
type CorrelatedConfig struct {
	// Base is the independent per-node outage model applied to every
	// node (set Base.TargetRate to 0 for purely correlated churn).
	Base OutageConfig
	// GroupSize is how many consecutive node indices share a lab.
	GroupSize int
	// SessionsPerGroup is how many correlated sessions hit each group
	// over the horizon.
	SessionsPerGroup int
	// SessionMean/SessionStddev parameterize the session length
	// (seconds); sessions are truncated-normal like base outages.
	SessionMean, SessionStddev float64
	// Participation is the probability that a given group member is
	// captured by a session (owners who skip the lab keep computing).
	Participation float64
}

// DefaultCorrelatedConfig composes light independent churn with hour-long
// lab sessions capturing 90% of each 10-node group.
func DefaultCorrelatedConfig() CorrelatedConfig {
	return CorrelatedConfig{
		Base:             DefaultOutageConfig(0.1),
		GroupSize:        10,
		SessionsPerGroup: 2,
		SessionMean:      3600,
		SessionStddev:    600,
		Participation:    0.9,
	}
}

// Validate rejects impossible configurations.
func (c CorrelatedConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.GroupSize < 1 {
		return fmt.Errorf("trace: group size %d", c.GroupSize)
	}
	if c.SessionsPerGroup < 0 {
		return fmt.Errorf("trace: sessions per group %d", c.SessionsPerGroup)
	}
	if !(c.SessionMean > 0) && c.SessionsPerGroup > 0 {
		return fmt.Errorf("trace: session mean %v", c.SessionMean)
	}
	if !(c.SessionStddev >= 0) {
		return fmt.Errorf("trace: session stddev %v", c.SessionStddev)
	}
	if !(c.Participation >= 0 && c.Participation <= 1) {
		return fmt.Errorf("trace: participation %v", c.Participation)
	}
	return nil
}

// GenerateCorrelatedFleet builds per-node traces with both independent and
// group-correlated outages. Groups cover disjoint consecutive node ranges
// and each group's sessions come from its own split stream.
func GenerateCorrelatedFleet(r *rng.Rand, cfg CorrelatedConfig, duration float64, nodes int) ([]Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	traces, err := GenerateFleet(r, cfg.Base, duration, nodes)
	if err != nil {
		return nil, err
	}
	groups := (nodes + cfg.GroupSize - 1) / cfg.GroupSize
	for g := 0; g < groups; g++ {
		gr := r.Split()
		for s := 0; s < cfg.SessionsPerGroup; s++ {
			length := gr.TruncNormal(cfg.SessionMean, cfg.SessionStddev, 300, duration)
			if length >= duration {
				length = duration - 1
			}
			start := gr.Float64() * (duration - length)
			session := Interval{Start: start, End: start + length}
			for i := g * cfg.GroupSize; i < (g+1)*cfg.GroupSize && i < nodes; i++ {
				if gr.Float64() > cfg.Participation {
					continue
				}
				traces[i] = mergeOutage(traces[i], session)
			}
		}
	}
	return traces, nil
}

// mergeOutage inserts an interval into a trace, coalescing overlaps so the
// trace invariants (sorted, non-overlapping) hold.
func mergeOutage(t Trace, iv Interval) Trace {
	if iv.End > t.Duration {
		iv.End = t.Duration
	}
	if iv.Duration() <= 0 {
		return t
	}
	all := append(append([]Interval(nil), t.Outages...), iv)
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	var merged []Interval
	for _, cur := range all {
		if n := len(merged); n > 0 && cur.Start <= merged[n-1].End {
			if cur.End > merged[n-1].End {
				merged[n-1].End = cur.End
			}
			continue
		}
		merged = append(merged, cur)
	}
	t.Outages = merged
	return t
}
