// Package ldp implements the local differential privacy primitives RetraSyn
// builds on (paper §II-A): the Optimized Unary Encoding (OUE) frequency
// oracle with faithful per-user perturbation and unbiased curator-side
// aggregation, a Generalized Randomized Response oracle for comparison, and
// an exact aggregate-level sampler used to simulate large user populations
// efficiently.
package ldp

import (
	"math"
	"math/rand/v2"
)

// Rand is the subset of *rand.Rand the package needs; callers can substitute
// deterministic sources in tests.
type Rand interface {
	Float64() float64
	IntN(int) int
	NormFloat64() float64
	Uint64() uint64
}

// NewRand returns a seeded PCG-backed random source. Two generators with the
// same seed pair produce identical streams, which the experiment harness
// relies on for reproducibility.
func NewRand(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}

// Source is a seeded PCG-backed random source whose position can be
// exported and restored, so a consumer checkpointed mid-stream resumes with
// the exact draw sequence of an uninterrupted run. It embeds rand.Rand
// (math/rand/v2), which keeps no state of its own beyond the underlying
// generator, so the PCG state is the complete randomness state.
//
// The generator state — written on every draw — lives inside the Source, and
// the Source fills exactly one cache line (the allocator aligns a 64-byte
// object to 64 bytes). Two shards' sources therefore never share a line;
// when the 16-byte PCG was an allocation of its own, two allocated back to
// back often did, and parallel shards slowed each other down 2–5×.
type Source struct {
	rand.Rand
	pcg rand.PCG
	_   [sourceSize - 32]byte
}

// sourceSize is the cache-line size Source is padded to; rand.Rand (one
// interface value) and rand.PCG take 16 bytes each.
const sourceSize = 64

// NewSource returns a checkpointable seeded source. Equal seed pairs produce
// identical streams.
func NewSource(seed1, seed2 uint64) *Source {
	s := new(Source)
	s.pcg.Seed(seed1, seed2)
	s.Rand = *rand.New(&s.pcg)
	return s
}

// Uint64 draws straight from the generator: rand.Rand.Uint64's value minus
// its second interface dispatch, which bernoulliWord pays ~45 times a report.
func (s *Source) Uint64() uint64 { return s.pcg.Uint64() }

// State exports the generator position.
func (s *Source) State() ([]byte, error) {
	return s.pcg.MarshalBinary()
}

// SetState restores a position previously exported by State.
func (s *Source) SetState(b []byte) error {
	return s.pcg.UnmarshalBinary(b)
}

// Binomial draws an exact sample from Binomial(n, p) when n·min(p,1−p) is
// small, and a clamped Gaussian approximation otherwise. The switch point is
// chosen so the approximation error is far below the sampling noise of any
// aggregate the library computes; the exact path uses geometric skips, which
// cost O(np) expected time.
func Binomial(rng Rand, n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	// Work with the smaller tail for efficiency; invert at the end.
	inverted := false
	if p > 0.5 {
		p = 1 - p
		inverted = true
	}
	var k int
	if float64(n)*p <= binomialExactThreshold {
		k = binomialGeometric(rng, n, p)
	} else {
		k = binomialNormal(rng, n, p)
	}
	if inverted {
		k = n - k
	}
	return k
}

// binomialExactThreshold bounds the expected work of the exact sampler.
// Below it we sample exactly; above it the normal approximation to
// Binomial(n,p) is accurate to well under one part in 10⁴ of the standard
// deviation.
const binomialExactThreshold = 1024

// binomialGeometric counts successes via geometric inter-arrival skips:
// the index of the next success after position i is i + Geom(p). Expected
// cost O(np).
func binomialGeometric(rng Rand, n int, p float64) int {
	// log(1-p) is stable here because p ≤ 0.5.
	logq := math.Log1p(-p)
	k := 0
	i := 0
	for {
		u := rng.Float64()
		for u == 0 { // Float64 can return 0; log(0) would overflow
			u = rng.Float64()
		}
		skip := int(math.Floor(math.Log(u) / logq))
		i += skip + 1
		if i > n {
			return k
		}
		k++
	}
}

// binomialNormal samples from the Gaussian approximation with continuity
// correction, clamped to [0, n].
func binomialNormal(rng Rand, n int, p float64) int {
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	k := int(math.Round(mean + rng.NormFloat64()*sd))
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}

// Bernoulli returns true with probability p.
func Bernoulli(rng Rand, p float64) bool {
	return rng.Float64() < p
}
