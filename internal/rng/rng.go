// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used by the MOON simulator.
//
// The simulator must produce bit-identical runs for a given seed regardless
// of Go version, so rng implements its own generator (xoshiro256** seeded
// via splitmix64) instead of relying on math/rand. Streams can be split so
// that independent subsystems (trace generation, workload service times,
// scheduling jitter) draw from decorrelated sequences without sharing state.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; split one stream per goroutine instead.
type Rand struct {
	s [4]uint64
	// cached second normal variate from Box-Muller
	hasGauss bool
	gauss    float64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is used to seed and split xoshiro256** states.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds give
// decorrelated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro requires a nonzero state; splitmix64 of any seed yields one
	// with overwhelming probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the xoshiro256** sequence.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new generator whose stream is decorrelated from r's.
// r itself advances by one draw.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, debiased.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate (Box-Muller with caching).
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// TruncNormal returns a normal variate clamped to [lo, hi] by resampling
// (up to a bounded number of attempts, then clamping). Used for outage
// durations which must be positive.
func (r *Rand) TruncNormal(mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		x := r.Normal(mean, stddev)
		if x >= lo && x <= hi {
			return x
		}
	}
	x := r.Normal(mean, stddev)
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exponential returns an exponential variate with the given mean.
func (r *Rand) Exponential(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// Poisson returns a Poisson variate with the given mean lambda.
// For small lambda it uses Knuth's product method; for large lambda the
// normal approximation with continuity correction.
func (r *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	x := r.Normal(lambda, math.Sqrt(lambda))
	if x < 0 {
		return 0
	}
	return int(x + 0.5)
}
