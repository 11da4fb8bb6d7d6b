package trace

import (
	"math"

	"repro/internal/rng"
)

// Profile maps a time (seconds from trace start) to a target instantaneous
// unavailability rate in [0, 1).
type Profile func(at float64) float64

// WorkdayProfile models the SDSC production volunteer-computing trace from
// the paper's Figure 1: measurements run 9:00AM-5:00PM, unavailability
// averages around 0.4 across days, dips mid-morning and late afternoon and
// peaks around lunchtime lab sessions, with substantial day-to-day offsets.
//
// dayBase is the day's average unavailability; amplitude scales the diurnal
// swing. horizon is the length of one measured day in seconds (8 h).
func WorkdayProfile(dayBase, amplitude, horizon float64) Profile {
	return func(at float64) float64 {
		x := at / horizon // 0..1 across the 9AM-5PM window
		// One broad midday bump plus a secondary late bump, echoing the
		// lab-session pattern in Figure 1.
		v := dayBase +
			amplitude*0.8*math.Sin(math.Pi*x)*math.Sin(math.Pi*x) +
			amplitude*0.2*math.Sin(2*math.Pi*x+1.0)
		return clampRate(v)
	}
}

func clampRate(v float64) float64 {
	if v < 0.02 {
		return 0.02
	}
	if v > 0.97 {
		return 0.97
	}
	return v
}

// GenerateMarkov builds a trace from a two-state Markov process whose
// stationary unavailability tracks profile. Outage (down) durations are
// exponential with the given mean; available (up) durations are exponential
// with mean chosen so that down/(up+down) equals the profile rate at the
// moment the up period begins.
func GenerateMarkov(r *rng.Rand, profile Profile, meanOutage, duration float64) Trace {
	t := Trace{Duration: duration}
	now := 0.0
	// Start in the up state with probability 1-p(0).
	if r.Float64() < profile(0) {
		d := r.Exponential(meanOutage)
		if d > duration {
			d = duration
		}
		t.Outages = append(t.Outages, Interval{Start: 0, End: d})
		now = d
	}
	for now < duration {
		p := profile(now)
		if p <= 0 {
			break
		}
		meanUp := meanOutage * (1 - p) / p
		up := r.Exponential(meanUp)
		start := now + up
		if start >= duration {
			break
		}
		down := r.Exponential(meanOutage)
		end := start + down
		if end > duration {
			end = duration
		}
		t.Outages = append(t.Outages, Interval{Start: start, End: end})
		now = end
	}
	return t
}

// Fig1Day is one day's aggregated unavailability series.
type Fig1Day struct {
	Day    int
	Series []float64 // fraction unavailable per 10-minute bucket
}

// The paper's Figure 1 measurement setup.
const (
	fig1Nodes      = 60       // fleet size (the paper's SDSC system; 60 here)
	fig1Days       = 7        // measured days
	fig1DaySeconds = 8 * 3600 // measured window per day (9:00AM-5:00PM)
	fig1Bucket     = 600      // sampling interval (10 min)
	fig1MeanOutage = 409      // mean outage duration (seconds)
	fig1Amplitude  = 0.35     // diurnal swing amplitude
)

// GenerateFig1 produces the per-day aggregated unavailability series of the
// paper's Figure 1 from the diurnal Markov model. Day bases are spread
// around 0.4 so the across-trace average matches the paper's reported
// average unavailability.
func GenerateFig1(r *rng.Rand) []Fig1Day {
	// Base rates roughly centered on 0.4 with day-to-day spread, echoing
	// the visibly different day curves in Figure 1.
	days := make([]Fig1Day, fig1Days)
	for d := range days {
		base := 0.15 + 0.26*r.Float64() // 0.15..0.41; plus the diurnal
		// bump this yields a fleet average near the paper's ~0.4
		profile := WorkdayProfile(base, fig1Amplitude, fig1DaySeconds)
		traces := make([]Trace, fig1Nodes)
		for i := range traces {
			traces[i] = GenerateMarkov(r.Split(), profile, fig1MeanOutage, fig1DaySeconds)
		}
		days[d] = Fig1Day{
			Day:    d + 1,
			Series: AggregateUnavailability(traces, fig1Bucket, fig1DaySeconds),
		}
	}
	return days
}
