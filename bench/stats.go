package main

import (
	"math"
	"slices"
	"sort"
)

// planMins returns, for each plan, the smallest value among the rounds that
// completed it. t[k][r] is plan k's value in round r; NaN or <= 0 marks a
// missing run. The host and the runtime only ever add (time, and resident
// pages a collection did not get to), so the smallest of R runs of one
// deterministic plan is the best estimate of what the plan itself costs. A
// plan missing from some rounds uses the rounds it has; a plan no round
// completed makes the result undefined (ok is false).
func planMins(t [][]float64) (mins []float64, ok bool) {
	if len(t) == 0 {
		return nil, false
	}
	for _, runs := range t {
		best := math.Inf(1)
		for _, v := range runs {
			if v > 0 && v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			return nil, false
		}
		mins = append(mins, best)
	}
	return mins, true
}

// sigmaMin is the sims' op_ms, Σ_k min_r t[k][r]: one round of every plan at
// its fastest.
func sigmaMin(t [][]float64) (float64, bool) {
	mins, ok := planMins(t)
	return sum(mins), ok
}

// maxMin is the sims' peak_rss_mb, max_k min_r t[k][r]: the largest plan's
// repeatable footprint.
func maxMin(t [][]float64) (float64, bool) {
	mins, ok := planMins(t)
	if !ok {
		return 0, false
	}
	return slices.Max(mins), true
}

func sum(v []float64) (total float64) {
	for _, x := range v {
		total += x
	}
	return total
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (0 when empty).
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPerMille are the candidates for the reported tail, highest first, in
// tenths of a percent so that ranks are exact integer arithmetic.
var tailPerMille = []int{999, 990, 950, 900, 750}

// rank is the nearest-rank index of the perMille/10-th percentile among n
// sorted values.
func rank(n, perMille int) int {
	return min(max((perMille*n+999)/1000-1, 0), n-1)
}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it, and returns it with its value. With fewer than 40
// samples no candidate qualifies and the maximum is reported as p100.
func tailPercentile(v []float64) (p, value float64) {
	s := sorted(v)
	n := len(s)
	if n == 0 {
		return 100, 0
	}
	for _, pm := range tailPerMille {
		if idx := rank(n, pm); n-1-idx >= 10 {
			return float64(pm) / 10, s[idx]
		}
	}
	return 100, s[n-1]
}

// percentile is the nearest-rank p-th percentile of v, p a whole number
// (0 when v is empty).
func percentile(v []float64, p int) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), p*10)]
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// does (the exclusive method), which is what the PR driver computes its
// spreads with. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// Cut point i of 4 over n values, exclusive method.
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
