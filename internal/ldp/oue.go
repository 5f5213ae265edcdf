package ldp

import (
	"fmt"
	"math"
)

// OUE implements the Optimized Unary Encoding frequency oracle (Wang et al.,
// USENIX Security'17), the protocol RetraSyn adopts because it has optimal
// variance among unary-encoding mechanisms (paper §II-A, Eq. 2–3).
//
// A user's value x in a domain of size d is one-hot encoded; the true bit is
// reported as 1 with probability 1/2 and every other bit flips to 1 with
// probability q = 1/(e^ε+1). The curator counts per-index ones over n
// reports and debiases: f̂(x) = (count(x)/n − q) / (1/2 − q).
type OUE struct {
	domain int
	eps    float64
	q      float64 // probability a 0-bit reports 1
	qfix   uint64  // q·2⁶⁴ rounded up: the flip probability bernoulliWord realises
}

// NewOUE constructs an OUE oracle for a domain of the given size and privacy
// budget ε > 0.
func NewOUE(domain int, eps float64) (*OUE, error) {
	if domain <= 0 {
		return nil, fmt.Errorf("ldp: OUE domain must be positive, got %d", domain)
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("ldp: OUE requires ε > 0, got %v", eps)
	}
	q := 1 / (math.Exp(eps) + 1)
	// q < ½, so q·2⁶⁴ fits; it is an integer already for q ≥ 2⁻¹¹ (ε ≲ 7.6), and
	// rounding up otherwise keeps the flip probability at or above q: a
	// report never spends more than ε.
	return &OUE{domain: domain, eps: eps, q: q, qfix: uint64(math.Ceil(math.Ldexp(q, 64)))}, nil
}

// MustOUE is NewOUE but panics on error.
func MustOUE(domain int, eps float64) *OUE {
	o, err := NewOUE(domain, eps)
	if err != nil {
		panic(err)
	}
	return o
}

// Domain returns the domain size d.
func (o *OUE) Domain() int { return o.domain }

// Epsilon returns the privacy budget ε.
func (o *OUE) Epsilon() float64 { return o.eps }

// Q returns the perturbation probability q = 1/(e^ε+1) for 0-bits.
func (o *OUE) Q() float64 { return o.q }

// Variance returns the per-index variance of the debiased frequency estimate
// with n reporting users: Var = 4e^ε / (n (e^ε − 1)²), paper Eq. 3.
func (o *OUE) Variance(n int) float64 {
	return Variance(o.eps, n)
}

// Variance is the OUE estimation variance 4e^ε/(n(e^ε−1)²) for budget eps and
// n users (paper Eq. 3). It returns +Inf for n ≤ 0.
func Variance(eps float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	e := math.Exp(eps)
	return 4 * e / (float64(n) * (e - 1) * (e - 1))
}

// Perturb produces a faithful per-user report as an index list: the
// ascending indices whose perturbed bit is 1. trueIdx must be in [0, d). It
// is PerturbPackedInto unpacked, so it consumes the random stream exactly as
// the packed form does and releases the same bits. The program's devices
// perturb packed rows; Perturb serves callers that want the index list.
func (o *OUE) Perturb(rng Rand, trueIdx int) []int {
	w := PackedWords(o.domain)
	p := make(PackedReport, 16) // on the stack: domains up to 1024 states need no heap buffer
	if w > len(p) {
		p = make(PackedReport, w)
	}
	o.PerturbPackedInto(rng, trueIdx, p[:w])
	return p[:w].Ones()
}

// bernoulliWord returns 64 independent Bernoulli(qfix/2⁶⁴) bits. Lane j is 1
// iff a uniform 64-bit string u_j is below qfix; the 64 comparisons run
// bit-sliced, most significant bit first, one draw per level. A lane is
// decided at the first level where its bit differs from qfix's, so half the
// undecided lanes drop out per level and a word costs about 7 draws; lanes
// still tied when qfix runs out of 1-bits cannot fall below it and are 0.
func bernoulliWord(rng Rand, qfix uint64) uint64 {
	var res uint64
	und := ^uint64(0) // lanes equal to qfix on every level so far
	for q := qfix; und != 0 && q != 0; q <<= 1 {
		r := rng.Uint64()
		m := uint64(int64(q) >> 63) // all-ones iff qfix's bit at this level is 1
		res |= und &^ r & m
		und &^= r ^ m
	}
	return res
}

// Aggregator accumulates OUE reports and produces unbiased frequency
// estimates. It is not safe for concurrent use; the engine owns one per
// collection round.
type Aggregator struct {
	oracle *OUE
	counts []int
	n      int
}

// NewAggregator creates an empty aggregator for the oracle's domain.
func NewAggregator(o *OUE) *Aggregator {
	return &Aggregator{oracle: o, counts: make([]int, o.domain)}
}

// Add ingests one user's report given as the indices of its 1-bits, one
// index at a time: the reference the packed fold (AddPackedBatch) is tested
// against.
func (a *Aggregator) Add(report []int) {
	for _, i := range report {
		a.counts[i]++
	}
	a.n++
}

// AddCounts ingests pre-summed counts for n users, used by the aggregate
// sampler path. counts must have the oracle's domain length.
func (a *Aggregator) AddCounts(counts []int, n int) {
	if len(counts) != len(a.counts) {
		panic(fmt.Sprintf("ldp: AddCounts length %d ≠ domain %d", len(counts), len(a.counts)))
	}
	for i, c := range counts {
		a.counts[i] += c
	}
	a.n += n
}

// N returns the number of reports ingested.
func (a *Aggregator) N() int { return a.n }

// Counts returns a copy of the per-index one-counts accumulated so far, for
// checkpointing an open collection round; feed it back through AddCounts on
// a fresh aggregator to restore.
func (a *Aggregator) Counts() []int {
	return append([]int(nil), a.counts...)
}

// Estimate returns the debiased frequency estimate for index i as a fraction
// of the reporting population. Estimates are unbiased and may be negative or
// exceed 1; consumers clamp when converting to probabilities (post-processing
// is privacy-free, paper Theorem 2).
func (a *Aggregator) Estimate(i int) float64 {
	if a.n == 0 {
		return 0
	}
	q := a.oracle.q
	return (float64(a.counts[i])/float64(a.n) - q) / (0.5 - q)
}

// EstimateAll returns the debiased estimates for the whole domain. The sum
// of estimates concentrates around 1 since each user holds exactly one value.
func (a *Aggregator) EstimateAll() []float64 {
	out := make([]float64, len(a.counts))
	if a.n == 0 {
		return out
	}
	q := a.oracle.q
	inv := 1 / (0.5 - q)
	nInv := 1 / float64(a.n)
	for i, c := range a.counts {
		out[i] = (float64(c)*nInv - q) * inv
	}
	return out
}

// Reset clears the aggregator for reuse.
func (a *Aggregator) Reset() {
	for i := range a.counts {
		a.counts[i] = 0
	}
	a.n = 0
}

// AggregateOracle simulates the curator-side view of an OUE collection round
// without materializing per-user reports: for index i with n_i true holders
// among n users, the observed count is Binomial(n_i, 1/2) + Binomial(n−n_i,
// q) — exactly the distribution of the sum of n faithful per-user reports.
// Binomial samples both terms exactly in O(1), so a round costs O(d) draws
// whatever n, and the counts are statistically identical to the per-user
// path, not an approximation of it: TestBinomialChiSquare pins the sampler
// to the exact pmf and TestAggregateOracleMatchesPerUser the estimates to
// the per-user ones.
type AggregateOracle struct {
	oracle *OUE
}

// NewAggregateOracle wraps an OUE oracle.
func NewAggregateOracle(o *OUE) *AggregateOracle {
	return &AggregateOracle{oracle: o}
}

// Collect simulates one round: trueCounts[i] users hold value i (Σ = n).
// It returns an Aggregator already loaded with the sampled counts.
func (ao *AggregateOracle) Collect(rng Rand, trueCounts []int) *Aggregator {
	if len(trueCounts) != ao.oracle.domain {
		panic(fmt.Sprintf("ldp: Collect length %d ≠ domain %d", len(trueCounts), ao.oracle.domain))
	}
	n := 0
	for _, c := range trueCounts {
		if c < 0 {
			panic("ldp: negative true count")
		}
		n += c
	}
	counts := make([]int, len(trueCounts))
	for i, ni := range trueCounts {
		counts[i] = Binomial(rng, ni, 0.5) + Binomial(rng, n-ni, ao.oracle.q)
	}
	agg := NewAggregator(ao.oracle)
	agg.AddCounts(counts, n)
	return agg
}
