// Package ldp implements the local differential privacy primitives RetraSyn
// builds on (paper §II-A): the Optimized Unary Encoding (OUE) frequency
// oracle with faithful per-user perturbation and unbiased curator-side
// aggregation, and an exact aggregate-level sampler used to simulate large
// user populations efficiently.
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

// Binomial draws an exact sample from Binomial(n, p) in O(1) expected time
// whatever n and p. It works with the smaller tail p' = min(p, 1−p) and
// inverts at the end; the method depends only on (n, p'): inversion when
// n·p' < binomialInversionMean, BTRS otherwise. Both are exact at every n —
// TestBinomialChiSquare pins the sampled frequencies to the exact pmf — and
// both draw only rng.Float64, so the generator's position stays the whole
// randomness state.
func Binomial(rng Rand, n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	inverted := p > 0.5
	if inverted {
		p = 1 - p
	}
	var k int
	if float64(n)*p < binomialInversionMean {
		k = binomialInversion(rng, n, p)
	} else {
		k = binomialBTRS(rng, n, p)
	}
	if inverted {
		k = n - k
	}
	return k
}

// binomialInversionMean is the mean n·p below which inversion, whose walk
// is O(n·p) multiplies but one uniform per sample, beats BTRS's ≈ 2.3
// uniforms and occasional Lgamma calls.
const binomialInversionMean = 10

// binomialInversion is BINV (Kachitvichyanukul & Schmeiser 1988): walk the
// pmf from k = 0 with f(k) = f(k−1)·((n+1)·s/k − s), s = p/(1−p), until one
// uniform is used up. If rounding leaves the summed pmf short of the uniform
// past k = n, or once f underflows to 0 (the walk can no longer return, and
// for n = 10⁹ that comes long before k = n), the draw restarts. Requires
// p ≤ ½ and n·p < 10, so f(0) = (1−p)ⁿ ≥ e^−14 never underflows.
func binomialInversion(rng Rand, n int, p float64) int {
	s := p / (1 - p)
	a := float64(n+1) * s
	f0 := math.Exp(float64(n) * math.Log1p(-p))
	for {
		u := rng.Float64()
		f := f0
		for k := 0; k <= n && f > 0; {
			if u < f {
				return k
			}
			u -= f
			k++
			f *= a/float64(k) - s
		}
	}
}

// binomialBTRS is Hörmann's transformed rejection with squeeze ("The
// generation of binomial random variates", J. Statist. Comput. Simul. 46,
// 1993), valid for p ≤ ½ and n·p ≥ 10. Each try takes two uniforms; ≈ 1.15
// tries make a sample, and most accept in the squeeze without Lgamma.
func binomialBTRS(rng Rand, n int, p float64) int {
	nf := float64(n)
	spq := math.Sqrt(nf * p * (1 - p))
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	alpha := (2.83 + 5.1/b) * spq
	m := math.Floor((nf + 1) * p)
	// h and lpq bound the log-pmf ratio to the mode; only draws outside
	// the squeeze need them.
	var h, lpq float64
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf { // us = 0 gives −Inf, rejected here
			continue
		}
		if us >= 0.07 && v <= vr {
			return int(kf)
		}
		if h == 0 {
			h = lgamma(m+1) + lgamma(nf-m+1)
			lpq = math.Log(p / (1 - p))
		}
		v = math.Log(v * alpha / (a/(us*us) + b))
		if v <= h-lgamma(kf+1)-lgamma(nf-kf+1)+(kf-m)*lpq {
			return int(kf)
		}
	}
}

// lgamma is log Γ(x) for x ≥ 1, where Γ is positive.
func lgamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

// Bernoulli returns true with probability p.
func Bernoulli(rng Rand, p float64) bool {
	return rng.Float64() < p
}
