// Package mathx provides the deterministic numeric substrate used by the
// rest of the repository: seeded random number generation, Gaussian
// sampling, least-squares fitting, and summary statistics.
//
// Everything in this package is deterministic given its seed so that chip
// simulations, trainer fits and experiments are exactly reproducible.
package mathx

import "math"

// SplitMix64 is a tiny, fast, well-distributed 64-bit PRNG used both as a
// stream generator and as a stateless hash (see Hash64). It is the
// recommended seeder for xoshiro-family generators.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 applies the SplitMix64 finalizer to x, producing a stateless,
// avalanche-quality 64-bit hash. It is the building block for the
// deterministic per-cell noise fields in the chip simulator.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix combines two 64-bit values into one hash. It is not commutative, so
// Mix(a,b) and Mix(b,a) give independent streams.
func Mix(a, b uint64) uint64 {
	return Hash64(a ^ (b*0x9e3779b97f4a7c15 + 0x165667b19e3779f9))
}

// Mix3 combines three 64-bit values into one hash.
func Mix3(a, b, c uint64) uint64 {
	return Mix(Mix(a, b), c)
}

// Mix4 combines four 64-bit values into one hash.
func Mix4(a, b, c, d uint64) uint64 {
	return Mix(Mix3(a, b, c), d)
}

// Rand is a xoshiro256** PRNG: fast, high quality, 256-bit state.
// The zero value is not usable; construct with NewRand.
type Rand struct {
	s         [4]uint64
	spare     float64
	haveSpare bool
}

// NewRand returns a generator whose state is expanded from seed with
// SplitMix64, as recommended by the xoshiro authors.
func NewRand(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	r := &Rand{}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// Guard against the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via the Box-Muller
// transform. Two uniforms are consumed per pair of normals; the spare is
// cached.
func (r *Rand) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.haveSpare = true
	return mag * math.Cos(2*math.Pi*v)
}
