// Package rng provides a small deterministic pseudo-random number
// generator used by the workload generators.
//
// The simulator must be bit-for-bit reproducible: the paper's evaluation
// reports ratios of execution times, and reproducing those ratios in tests
// requires that the same seed always yields the same access stream. A
// process-global generator (math/rand's default source) would couple
// unrelated workloads, so every generator owns its own Source.
package rng

// Source is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0; use New to seed it explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
//
// SplitMix64 (Steele, Lea, Flood: "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014) passes BigCrush and needs only three
// multiplications, which matters because workload generators call it on
// every synthetic access.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return s.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Chance returns true with probability p (clamped to [0, 1]).
func (s *Source) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Fork returns a new Source deterministically derived from this one,
// leaving the parent's stream position advanced by one. Forking lets a
// workload give each phase an independent stream without manual seed
// bookkeeping.
func (s *Source) Fork() *Source {
	return New(s.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}
