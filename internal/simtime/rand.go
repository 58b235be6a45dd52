package simtime

import (
	"math"
	"math/rand/v2"
	"time"
)

// Rand wraps a seeded deterministic source with the distributions the
// simulator needs. All stochastic behaviour in a scenario must flow from a
// single Rand so that runs are reproducible from the seed alone.
//
// The source is a 16-byte PCG held inline next to the rand.Rand that
// reads it, so a stream costs one small allocation and O(1) seeding:
// population-scale scenarios fork thousands of them.
type Rand struct {
	pcg rand.PCG
	rng rand.Rand
}

// NewRand returns a deterministic generator for the given seed. The seed
// is spread over both PCG words by splitmix64, so adjacent seeds (cells
// run with seed+i) start from unrelated states.
func NewRand(seed int64) *Rand {
	s := uint64(seed)
	r := &Rand{pcg: *rand.NewPCG(splitmix64(&s), splitmix64(&s))}
	r.rng = *rand.New(&r.pcg)
	return r
}

// splitmix64 advances *s and returns the next output of Vigna's
// SplitMix64 sequence.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.rng.Float64() }

// Intn returns a uniform int in [0, n). n must be positive.
func (r *Rand) Intn(n int) int { return r.rng.IntN(n) }

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*r.rng.Float64() }

// UniformDuration returns a uniform duration in [lo, hi).
func (r *Rand) UniformDuration(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.rng.Int64N(int64(hi-lo)))
}

// ExponentialDuration returns an exponentially distributed duration with
// the given mean.
func (r *Rand) ExponentialDuration(mean time.Duration) time.Duration {
	return time.Duration(r.rng.ExpFloat64() * float64(mean))
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 { return mean + stddev*r.rng.NormFloat64() }

// LogNormal returns a log-normally distributed value parameterised by the
// mean and stddev of the underlying normal. Used for shadowing in dB and
// heavy-tailed session lengths.
func (r *Rand) LogNormal(mu, sigma float64) float64 { return math.Exp(r.Normal(mu, sigma)) }

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.rng.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.rng.Perm(n) }

// Fork derives an independent generator from this one. Subsystems that
// consume randomness at data-dependent rates (e.g. per-link loss) use forks
// so that changing one subsystem's draw count does not perturb another's.
func (r *Rand) Fork() *Rand { return NewRand(r.rng.Int64()) }
