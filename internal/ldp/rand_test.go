package ldp

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestBinomialEdgeCases(t *testing.T) {
	rng := NewRand(1, 2)
	tests := []struct {
		n    int
		p    float64
		want int
	}{
		{0, 0.5, 0},
		{-5, 0.5, 0},
		{100, 0, 0},
		{100, -0.3, 0},
		{100, 1, 100},
		{100, 1.5, 100},
		{0, 1, 0},
		{0, 1e-12, 0},
		{1, 0, 0},
		{1, 1, 1},
		{1, 1e-12, 0},
		{1, 1 - 1e-12, 1},
	}
	for _, tt := range tests {
		if got := Binomial(rng, tt.n, tt.p); got != tt.want {
			t.Errorf("Binomial(%d,%v) = %d, want %d", tt.n, tt.p, got, tt.want)
		}
	}
}

func TestBinomialRange(t *testing.T) {
	rng := NewRand(3, 4)
	for i := 0; i < 2000; i++ {
		n := 1 + rng.IntN(500)
		p := rng.Float64()
		k := Binomial(rng, n, p)
		if k < 0 || k > n {
			t.Fatalf("Binomial(%d,%v) = %d out of range", n, p, k)
		}
	}
}

func TestBinomialMomentsExactPath(t *testing.T) {
	// n·p below 10 exercises the inversion walk.
	const n, p, trials = 200, 0.04, 30000
	rng := NewRand(10, 20)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		k := float64(Binomial(rng, n, p))
		sum += k
		sumSq += k * k
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	wantMean, wantVar := float64(n)*p, float64(n)*p*(1-p)
	if math.Abs(mean-wantMean) > 0.1 {
		t.Errorf("mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 0.4 {
		t.Errorf("variance = %v, want %v", variance, wantVar)
	}
}

func TestBinomialMomentsBTRSPath(t *testing.T) {
	// n·p far above 10 exercises transformed rejection.
	const n, p, trials = 50000, 0.3, 5000
	rng := NewRand(11, 21)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		k := float64(Binomial(rng, n, p))
		sum += k
		sumSq += k * k
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	wantMean, wantVar := float64(n)*p, float64(n)*p*(1-p)
	if math.Abs(mean-wantMean) > 10 {
		t.Errorf("mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(variance/wantVar-1) > 0.1 {
		t.Errorf("variance = %v, want %v", variance, wantVar)
	}
}

// binomialPMF is the exact Binomial(n, p) pmf over k = 0…n, by Lgamma.
func binomialPMF(n int, p float64) []float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	lp, lq := math.Log(p), math.Log1p(-p)
	pmf := make([]float64, n+1)
	for k := range pmf {
		lgK, _ := math.Lgamma(float64(k + 1))
		lgNK, _ := math.Lgamma(float64(n - k + 1))
		pmf[k] = math.Exp(lgN - lgK - lgNK + float64(k)*lp + float64(n-k)*lq)
	}
	return pmf
}

// TestBinomialChiSquare draws each (n, p) a million times and tests the
// frequencies against the exact pmf: Pearson's χ² over bins of ≥ 20 expected
// draws, standardised as z = (χ² − df)/√(2·df), must stay within 5σ. The
// grid covers both methods, n·p just below and above the switch at 10, and
// p > ½ (the inversion symmetry).
func TestBinomialChiSquare(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{5, .3}, {12, .9}, {20, .5}, {30, .269}, {37, .269}, {40, .5},
		{200, .269}, {1000, .05}, {5000, .269}, {100000, .4},
		{1000, .0099}, {1000, .0101}, {1000, .9901}, {1000, .9899}, {40, .75},
	}
	draws := 1_000_000
	if testing.Short() {
		draws = 200_000
	}
	for i, c := range cases {
		pmf := binomialPMF(c.n, c.p)
		obs := make([]int, c.n+1)
		rng := NewSource(uint64(i)+100, 7)
		for j := 0; j < draws; j++ {
			k := Binomial(rng, c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial(%d, %v) = %d out of range", c.n, c.p, k)
			}
			obs[k]++
		}
		// rest[k] expects the draws above k.
		rest := make([]float64, c.n+1)
		for k := c.n - 1; k >= 0; k-- {
			rest[k] = rest[k+1] + pmf[k+1]*float64(draws)
		}
		chi2, bins := 0.0, 0
		var e float64
		var o int
		for k := range pmf {
			e += pmf[k] * float64(draws)
			o += obs[k]
			// A bin closes once it expects ≥ 20 and what is left does too.
			if k == c.n || (e >= 20 && rest[k] >= 20) {
				chi2 += (float64(o) - e) * (float64(o) - e) / e
				bins++
				e, o = 0, 0
			}
		}
		df := float64(bins - 1)
		z := (chi2 - df) / math.Sqrt(2*df)
		if math.Abs(z) > 5 {
			t.Errorf("Binomial(%d, %v): χ² = %.1f over %d bins, z = %.2f", c.n, c.p, chi2, bins, z)
		}
		t.Logf("Binomial(%d, %v): %d bins, z = %.2f", c.n, c.p, bins, z)
	}
}

// countingRand counts uniform draws and refuses every other kind, so a
// sampler that reached for another distribution would be caught too.
type countingRand struct {
	*Source
	uniforms int
}

func (c *countingRand) Float64() float64 { c.uniforms++; return c.Source.Float64() }
func (c *countingRand) IntN(int) int     { panic("Binomial drew IntN") }
func (c *countingRand) NormFloat64() float64 {
	panic("Binomial drew NormFloat64")
}
func (c *countingRand) Uint64() uint64 { panic("Binomial drew Uint64") }

// TestBinomialUniformsPerDraw pins the cost model: at most 3 uniforms per
// sample on average once n·p ≥ 10 (BTRS: two per try, ≈ 1.15 tries), and one
// per sample below (inversion; a restart is a rounding event, not a cost
// term). Any return to O(n·p) work per sample fails it by orders of magnitude.
func TestBinomialUniformsPerDraw(t *testing.T) {
	const calls = 20000
	cases := []struct {
		n    int
		p    float64
		most float64
	}{
		{100, 0.01, 1.001}, {1000, 0.0099, 1.001}, {10, 0.95, 1.001}, {1_000_000_000, 1e-9, 1.001},
		{1000, 0.0101, 3}, {100, 0.5, 3}, {20000, 0.269, 3}, {10_000_000, 0.1, 3},
		{1_000_000_000, 0.5, 3}, {1_000_000_000, 0.999, 3},
	}
	for _, c := range cases {
		rng := &countingRand{Source: NewSource(5, 6)}
		for i := 0; i < calls; i++ {
			Binomial(rng, c.n, c.p)
		}
		if per := float64(rng.uniforms) / calls; per > c.most {
			t.Errorf("Binomial(%d, %v): %.3f uniforms per sample, want ≤ %v", c.n, c.p, per, c.most)
		}
	}
}

// TestBinomialCoinAndBillionTrials: one fair trial comes up even, and a
// billion trials at any p come back in range and near the mean at once.
func TestBinomialCoinAndBillionTrials(t *testing.T) {
	const tiny = 1e-12
	rng := NewSource(3, 5)
	ones := 0
	for i := 0; i < 10000; i++ {
		ones += Binomial(rng, 1, 0.5)
	}
	if ones < 4700 || ones > 5300 {
		t.Errorf("Binomial(1, ½) gave %d ones in 10000", ones)
	}
	const n = 1_000_000_000
	for _, p := range []float64{tiny, 1e-9, 0.3, 0.5, 1 - 1e-9, 1 - tiny} {
		for i := 0; i < 100; i++ {
			k := Binomial(rng, n, p)
			if k < 0 || k > n {
				t.Fatalf("Binomial(%d, %v) = %d out of range", n, p, k)
			}
			if sd := math.Sqrt(n * p * (1 - p)); math.Abs(float64(k)-n*p) > 8*sd+8 {
				t.Fatalf("Binomial(%d, %v) = %d, mean %v sd %v", n, p, k, n*p, sd)
			}
		}
	}
}

func TestBinomialHighPInversion(t *testing.T) {
	// p > 0.5 exercises the inversion branch.
	const n, p, trials = 100, 0.9, 20000
	rng := NewRand(12, 22)
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(Binomial(rng, n, p))
	}
	mean := sum / trials
	if math.Abs(mean-90) > 0.5 {
		t.Errorf("mean = %v, want 90", mean)
	}
}

func TestBinomialMeanProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, pRaw uint16) bool {
		n := int(nRaw%1000) + 1
		p := float64(pRaw%1000) / 1000
		rng := NewRand(seed, seed+1)
		const trials = 400
		sum := 0
		for i := 0; i < trials; i++ {
			sum += Binomial(rng, n, p)
		}
		mean := float64(sum) / trials
		want := float64(n) * p
		sd := math.Sqrt(float64(n)*p*(1-p)/trials) + 1e-9
		return math.Abs(mean-want) < 6*sd+0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulli(t *testing.T) {
	rng := NewRand(9, 9)
	const trials = 50000
	hits := 0
	for i := 0; i < trials; i++ {
		if Bernoulli(rng, 0.3) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(1, 2), NewRand(1, 2)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(1, 3)
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different-seed generators produced identical streams")
	}
}

// TestSourceStreamAndLayout: a Source draws the stream NewRand draws from the
// same seed pair, resumes it exactly from an exported position, and keeps its
// generator state inside its own single cache line.
func TestSourceStreamAndLayout(t *testing.T) {
	src, ref := NewSource(41, 43), NewRand(41, 43)
	for i := 0; i < 100; i++ {
		if a, b := src.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("draw %d: Source %#x, NewRand %#x", i, a, b)
		}
	}
	pos, err := src.State()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewSource(0, 0)
	if err := resumed.SetState(pos); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := resumed.IntN(1000), src.IntN(1000); a != b {
			t.Fatalf("resumed draw %d: %d, want %d", i, a, b)
		}
	}
	if got := unsafe.Sizeof(*src); got != sourceSize {
		t.Fatalf("Source is %d bytes, want one %d-byte cache line", got, sourceSize)
	}
	if off := unsafe.Offsetof(src.pcg); off+unsafe.Sizeof(src.pcg) > sourceSize {
		t.Fatalf("generator state at offset %d leaves the Source's line", off)
	}
}
