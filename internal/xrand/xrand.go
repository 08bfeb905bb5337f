// Package xrand implements deterministic, splittable pseudo-random number
// generation for parallel workloads.
//
// Graph generation in this repository is parallel: each worker generates a
// disjoint chunk of edges. To keep outputs identical regardless of worker
// count (a requirement for reproducible benchmarks), every chunk derives
// its own statistically independent stream from (seed, streamID) via
// SplitMix64, feeding a xoshiro256** generator.
package xrand

import "math"

// SplitMix64 is the 64-bit mixing generator from Steele et al. It is used
// both as a standalone generator and to seed xoshiro streams.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Next returns the next 64-bit value.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a single SplitMix64 step of x: a cheap, high-quality
// 64-bit hash used to derive per-stream seeds.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a xoshiro256** generator.
type Rand struct{ s0, s1, s2, s3 uint64 }

// New returns a generator seeded from seed via SplitMix64.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	return &Rand{sm.Next(), sm.Next(), sm.Next(), sm.Next()}
}

// NewStream returns the generator for substream streamID of seed. Distinct
// (seed, streamID) pairs yield independent streams; the mapping is
// deterministic, so parallel generation is reproducible for any worker
// count.
func NewStream(seed, streamID uint64) *Rand {
	return New(Mix64(seed) ^ Mix64(streamID*0xda942042e4dd58b5+1))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). n must be > 0.
// Uses Lemire's multiply-shift bounded generation (negligible bias for the
// graph sizes used here is avoided via the rejection step).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform value in [0, n) using rejection sampling.
func (r *Rand) uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: uint64n with n == 0")
	}
	if n&(n-1) == 0 { // power of two
		return r.Uint64() & (n - 1)
	}
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v <= max {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller, cached pair
// omitted for simplicity; generators here are not throughput-critical).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Poisson returns a Poisson(lambda) variate. For small lambda it uses
// Knuth's product method; for large lambda a normal approximation with
// continuity correction, which is accurate far beyond the needs of
// expected-degree graph sampling.
func (r *Rand) Poisson(lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		var k int64
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := lambda + math.Sqrt(lambda)*r.NormFloat64() + 0.5
	if v < 0 {
		return 0
	}
	return int64(v)
}
