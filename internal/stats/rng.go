// Package stats provides deterministic pseudo-random number generation and
// summary statistics used throughout the reproduction. All stochastic code in
// the repository draws from stats.RNG so that every experiment is reproducible
// bit-for-bit from an explicit seed.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on SplitMix64
// (Steele, Lea, Flood; JavaOne 2014). It is small, fast, passes BigCrush for
// the output sizes used here, and — unlike math/rand's global state — makes
// the seed an explicit part of every experiment's identity.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new generator whose stream is a deterministic function of
// the receiver's current state, then advances the receiver. It is used to
// give independent sub-streams to parallel experiment workers without
// coupling their consumption order.
func (r *RNG) Split() *RNG {
	return NewRNG(r.SplitSeed())
}

// SplitSeed advances the receiver and returns the seed Split would construct
// its child from, without allocating the child. Callers that manage their own
// RNG storage (e.g. per-worker workspaces) reseed a value-typed RNG with it
// via Reset, keeping hot loops allocation-free.
func (r *RNG) SplitSeed() uint64 {
	// Mix the child seed through one extra round so parent and child
	// streams do not overlap for any practical sequence length.
	s := r.Uint64()
	s ^= 0x9e3779b97f4a7c15
	s *= 0xbf58476d1ce4e5b9
	return s
}

// Reset reseeds the generator in place: after Reset(seed) the stream is
// identical to NewRNG(seed)'s.
func (r *RNG) Reset(seed uint64) { r.state = seed }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0; that is a
// programmer error, not a runtime condition.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// modulo bias at these n (< 2^20) is below measurement noise and the
	// simple form is easier to audit.
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a draw from the Normal distribution with the given mean and
// standard deviation via the inverse CDF (Acklam's rational approximation,
// relative error < 1.2e-9 — far below simulation noise). It consumes exactly
// one uniform per draw, so the stream position stays a simple function of
// the number of calls; the central ~95% of draws need no transcendental
// functions at all, which matters because workload drawing is the hottest
// non-dispatch loop of the online simulator. sigma may be zero, in which
// case mean is returned.
func (r *RNG) Normal(mean, sigma float64) float64 {
	if sigma == 0 {
		return mean
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return mean + sigma*normInv(u)
}

// Coefficients of Acklam's inverse normal CDF approximation (central
// rational and tail rational branches).
const (
	nrmA1 = -3.969683028665376e+01
	nrmA2 = 2.209460984245205e+02
	nrmA3 = -2.759285104469687e+02
	nrmA4 = 1.383577518672690e+02
	nrmA5 = -3.066479806614716e+01
	nrmA6 = 2.506628277459239e+00
	nrmB1 = -5.447609879822406e+01
	nrmB2 = 1.615858368580409e+02
	nrmB3 = -1.556989798598866e+02
	nrmB4 = 6.680131188771972e+01
	nrmB5 = -1.328068155288572e+01
	nrmC1 = -7.784894002430293e-03
	nrmC2 = -3.223964580411365e-01
	nrmC3 = -2.400758277161838e+00
	nrmC4 = -2.549732539343734e+00
	nrmC5 = 4.374664141464968e+00
	nrmC6 = 2.938163982698783e+00
	nrmD1 = 7.784695709041462e-03
	nrmD2 = 3.224671290700398e-01
	nrmD3 = 2.445134137142996e+00
	nrmD4 = 3.754408661907416e+00
	nrmPL = 0.02425 // tail/central breakpoint
)

// normInv returns the standard normal quantile Φ⁻¹(p) for p in (0, 1).
func normInv(p float64) float64 {
	switch {
	case p < nrmPL:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((nrmC1*q+nrmC2)*q+nrmC3)*q+nrmC4)*q+nrmC5)*q + nrmC6) /
			((((nrmD1*q+nrmD2)*q+nrmD3)*q+nrmD4)*q + 1)
	case p <= 1-nrmPL:
		q := p - 0.5
		s := q * q
		return (((((nrmA1*s+nrmA2)*s+nrmA3)*s+nrmA4)*s+nrmA5)*s + nrmA6) * q /
			(((((nrmB1*s+nrmB2)*s+nrmB3)*s+nrmB4)*s+nrmB5)*s + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((nrmC1*q+nrmC2)*q+nrmC3)*q+nrmC4)*q+nrmC5)*q + nrmC6) /
			((((nrmD1*q+nrmD2)*q+nrmD3)*q+nrmD4)*q + 1)
	}
}

// TruncNormal returns a Normal(mean, sigma) draw rejected into [lo, hi].
// This is the actual-execution-cycle distribution the paper's §4 specifies:
// cycles vary between BCEC and WCEC following a normal distribution.
// Rejection sampling is exact; for the paper's parameters (the interval spans
// ±3σ) the expected number of draws is ~1.003.
func (r *RNG) TruncNormal(mean, sigma, lo, hi float64) float64 {
	if lo > hi {
		panic("stats: TruncNormal with lo > hi")
	}
	if sigma == 0 || lo == hi {
		return math.Min(hi, math.Max(lo, mean))
	}
	for i := 0; i < 1024; i++ {
		x := r.Normal(mean, sigma)
		if x >= lo && x <= hi {
			return x
		}
	}
	// The interval is so far into the tail that rejection failed 1024
	// times; clamp rather than loop forever. Reachable only with degenerate
	// parameters (mean far outside [lo, hi]).
	return math.Min(hi, math.Max(lo, mean))
}

// Bimodal returns lo-mode or hi-mode Normal draw: with probability pHi the
// draw is centred at hiMean, otherwise at loMean, both with deviation sigma,
// truncated to [lo, hi]. Used by workload ablations to model tasks that
// normally run short but occasionally long — the exact scenario the paper's
// abstract calls out.
func (r *RNG) Bimodal(loMean, hiMean, sigma, pHi, lo, hi float64) float64 {
	if r.Float64() < pHi {
		return r.TruncNormal(hiMean, sigma, lo, hi)
	}
	return r.TruncNormal(loMean, sigma, lo, hi)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ChoiceInt returns a uniformly chosen element of xs. It panics on an empty
// slice (programmer error).
func (r *RNG) ChoiceInt(xs []int64) int64 {
	if len(xs) == 0 {
		panic("stats: ChoiceInt of empty slice")
	}
	return xs[r.Intn(len(xs))]
}
