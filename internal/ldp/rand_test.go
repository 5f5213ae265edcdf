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
	// n·p below the exact threshold exercises the geometric sampler.
	const n, p, trials = 200, 0.1, 30000
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
	if math.Abs(mean-wantMean) > 0.25 {
		t.Errorf("mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 1.5 {
		t.Errorf("variance = %v, want %v", variance, wantVar)
	}
}

func TestBinomialMomentsNormalPath(t *testing.T) {
	// n·p above the threshold exercises the Gaussian approximation.
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
