// Package rng provides small, fast, deterministic pseudo-random number
// generators for the simulator.
//
// The engine gives every router (and every traffic source) its own stream
// derived from the run seed with SplitMix64, so simulations are reproducible
// and independent of goroutine scheduling: the parallel executor produces
// results identical to the serial one.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used both as a seeding function and as the stream splitter.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PCG is a PCG32 (XSH-RR) generator: 64-bit state, 32-bit output.
// The zero value is a valid but fixed stream; use Seed or New.
type PCG struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

// New returns a generator seeded from seed on stream stream.
// Distinct streams are statistically independent.
func New(seed, stream uint64) *PCG {
	var p PCG
	p.Seed(seed, stream)
	return &p
}

// Seed (re)initializes the generator from seed on the given stream.
func (p *PCG) Seed(seed, stream uint64) {
	s := seed
	p.state = 0
	p.inc = (splitMix64(&s)+2*stream)<<1 | 1
	p.Uint32()
	p.state += splitMix64(&s)
	p.Uint32()
}

// pcgMul is the LCG multiplier of PCG32.
const pcgMul = 6364136223846793005

// Uint32 returns the next 32 uniformly distributed bits.
func (p *PCG) Uint32() uint32 {
	old := p.state
	// The increment must be odd for the LCG to reach full period; the
	// |1 keeps the zero value usable (a fixed but valid stream) instead
	// of degenerating to a constant.
	p.state = old*pcgMul + (p.inc | 1)
	return output(old)
}

// output is PCG32's XSH-RR permutation of the state a step starts from.
func output(old uint64) uint32 {
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (p *PCG) Uint64() uint64 {
	return uint64(p.Uint32())<<32 | uint64(p.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint32(n)
	for {
		v := p.Uint32()
		m := uint64(v) * uint64(bound)
		lo := uint32(m)
		if lo >= bound {
			return int(m >> 32)
		}
		// Rejection zone: only reached for lo < bound, which happens
		// with probability < bound/2^32.
		threshold := -bound % bound
		if lo >= threshold {
			return int(m >> 32)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability prob (clamped to [0, 1]).
func (p *PCG) Bernoulli(prob float64) bool { return p.Trials(prob, 1) == 0 }

// Trials runs up to n Bernoulli(prob) trials and returns the index of the
// first success, or n if none succeeds. It consumes exactly the draws of
// the trials it ran, so it leaves the generator where that many Bernoulli
// calls would, for every prob: prob <= 0 draws nothing and never succeeds,
// prob >= 1 draws nothing and succeeds at once, and NaN draws for every
// trial and never succeeds. n <= 0 runs no trial and returns 0.
//
// A trial draws two outputs and succeeds iff Float64() < prob, that is iff
// the 53-bit x = Uint64()>>11 is below k = ceil(prob * 2^53) (the product is
// exact and x an integer). x's top 32 bits are the first output, which
// decides the trial alone unless it equals k>>21; only then, with
// probability 2^-32, is the second output computed. The trial's two LCG
// steps fold into one multiply-add.
func (p *PCG) Trials(prob float64, n int64) int64 {
	if n <= 0 {
		return 0
	}
	if prob <= 0 {
		return n
	}
	a, c := uint64(pcgMul), p.inc|1
	a2, c2 := a*a, c*(a+1)
	s := p.state
	if math.IsNaN(prob) {
		for range n {
			s = s*a2 + c2
		}
		p.state = s
		return n
	}
	if prob >= 1 {
		return 0
	}
	k := uint64(math.Ceil(prob * (1 << 53)))
	hi, lo := uint32(k>>21), uint32(k)&(1<<21-1)
	for i := range n {
		first := output(s)
		if first < hi || first == hi && output(s*a+c)>>11 < lo {
			p.state = s*a2 + c2
			return i
		}
		s = s*a2 + c2
	}
	p.state = s
	return n
}

// Split derives a new, statistically independent generator from the
// current one without disturbing its own sequence more than one step.
func (p *PCG) Split() *PCG {
	seed := p.Uint64()
	return New(seed, seed>>33+1)
}
