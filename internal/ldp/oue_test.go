package ldp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewOUEValidation(t *testing.T) {
	tests := []struct {
		name    string
		domain  int
		eps     float64
		wantErr bool
	}{
		{"ok", 100, 1.0, false},
		{"domain 1 ok", 1, 1.0, false},
		{"zero domain", 0, 1.0, true},
		{"negative domain", -5, 1.0, true},
		{"zero eps", 10, 0, true},
		{"negative eps", 10, -1, true},
		{"nan eps", 10, math.NaN(), true},
		{"inf eps", 10, math.Inf(1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewOUE(tt.domain, tt.eps)
			if (err != nil) != tt.wantErr {
				t.Fatalf("NewOUE(%d,%v) err=%v wantErr=%v", tt.domain, tt.eps, err, tt.wantErr)
			}
		})
	}
}

func TestOUEQ(t *testing.T) {
	o := MustOUE(10, 1.0)
	want := 1 / (math.E + 1)
	if math.Abs(o.Q()-want) > 1e-12 {
		t.Fatalf("Q = %v, want %v", o.Q(), want)
	}
}

func TestVarianceFormula(t *testing.T) {
	// Eq. 3: Var = 4e^ε / (n(e^ε−1)²).
	tests := []struct {
		eps float64
		n   int
	}{
		{0.5, 100}, {1.0, 1000}, {2.0, 10}, {1.5, 1},
	}
	for _, tt := range tests {
		e := math.Exp(tt.eps)
		want := 4 * e / (float64(tt.n) * (e - 1) * (e - 1))
		if got := Variance(tt.eps, tt.n); math.Abs(got-want) > 1e-12 {
			t.Errorf("Variance(%v,%d) = %v, want %v", tt.eps, tt.n, got, want)
		}
	}
	if !math.IsInf(Variance(1.0, 0), 1) {
		t.Error("Variance with n=0 should be +Inf")
	}
}

func TestVarianceMonotonic(t *testing.T) {
	// More users and bigger budget both shrink the variance.
	if Variance(1.0, 100) <= Variance(1.0, 1000) {
		t.Error("variance should decrease with n")
	}
	if Variance(0.5, 100) <= Variance(2.0, 100) {
		t.Error("variance should decrease with ε")
	}
}

func TestPerturbIndexPanics(t *testing.T) {
	o := MustOUE(5, 1.0)
	rng := NewRand(1, 1)
	for _, idx := range []int{-1, 5, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Perturb(%d) did not panic", idx)
				}
			}()
			o.Perturb(rng, idx)
		}()
	}
}

func TestPerturbBitRates(t *testing.T) {
	// Empirically check P[1→1] ≈ 1/2 and P[0→1] ≈ q.
	const trials = 20000
	o := MustOUE(8, 1.0)
	rng := NewRand(42, 43)
	trueOnes, falseOnes := 0, 0
	for i := 0; i < trials; i++ {
		for _, idx := range o.Perturb(rng, 3) {
			if idx == 3 {
				trueOnes++
			} else {
				falseOnes++
			}
		}
	}
	pTrue := float64(trueOnes) / trials
	pFalse := float64(falseOnes) / (trials * 7)
	if math.Abs(pTrue-0.5) > 0.02 {
		t.Errorf("P[1→1] = %v, want ≈0.5", pTrue)
	}
	if math.Abs(pFalse-o.Q()) > 0.02 {
		t.Errorf("P[0→1] = %v, want ≈%v", pFalse, o.Q())
	}
}

func TestOUEUnbiased(t *testing.T) {
	// With many users holding a known distribution, estimates converge to it.
	const n = 30000
	o := MustOUE(4, 1.0)
	rng := NewRand(5, 6)
	// True distribution: 0.5, 0.3, 0.2, 0.0
	truth := []float64{0.5, 0.3, 0.2, 0.0}
	agg := NewAggregator(o)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		v := 0
		switch {
		case u < 0.5:
			v = 0
		case u < 0.8:
			v = 1
		default:
			v = 2
		}
		agg.Add(o.Perturb(rng, v))
	}
	if agg.N() != n {
		t.Fatalf("N = %d", agg.N())
	}
	est := agg.EstimateAll()
	sd := math.Sqrt(Variance(1.0, n))
	for i, want := range truth {
		if math.Abs(est[i]-want) > 6*sd {
			t.Errorf("estimate[%d] = %v, want %v ± %v", i, est[i], want, 6*sd)
		}
	}
}

func TestOUEEstimatesSumNearOne(t *testing.T) {
	const n = 20000
	o := MustOUE(32, 1.0)
	rng := NewRand(11, 13)
	agg := NewAggregator(o)
	for i := 0; i < n; i++ {
		agg.Add(o.Perturb(rng, rng.IntN(32)))
	}
	sum := 0.0
	for _, e := range agg.EstimateAll() {
		sum += e
	}
	// Per-index sd ≈ 0.0136 at ε=1, n=20k; the 32 indices are independent, so
	// the sum's sd ≈ 0.077 — allow ~4σ.
	if math.Abs(sum-1) > 0.3 {
		t.Fatalf("sum of estimates = %v, want ≈ 1", sum)
	}
}

func TestAggregatorEstimateMatchesEstimateAll(t *testing.T) {
	o := MustOUE(16, 0.8)
	rng := NewRand(3, 3)
	agg := NewAggregator(o)
	for i := 0; i < 500; i++ {
		agg.Add(o.Perturb(rng, i%16))
	}
	all := agg.EstimateAll()
	for i := range all {
		if math.Abs(agg.Estimate(i)-all[i]) > 1e-12 {
			t.Fatalf("Estimate(%d) = %v ≠ EstimateAll %v", i, agg.Estimate(i), all[i])
		}
	}
}

func TestAggregatorEmpty(t *testing.T) {
	o := MustOUE(4, 1.0)
	agg := NewAggregator(o)
	if agg.Estimate(0) != 0 {
		t.Error("empty aggregator estimate should be 0")
	}
	for _, e := range agg.EstimateAll() {
		if e != 0 {
			t.Error("empty aggregator estimates should be 0")
		}
	}
}

func TestAggregatorReset(t *testing.T) {
	o := MustOUE(4, 1.0)
	rng := NewRand(1, 2)
	agg := NewAggregator(o)
	agg.Add(o.Perturb(rng, 1))
	agg.Reset()
	if agg.N() != 0 {
		t.Fatalf("N after reset = %d", agg.N())
	}
	for _, e := range agg.EstimateAll() {
		if e != 0 {
			t.Error("estimates after reset should be 0")
		}
	}
}

func TestAddCountsLengthPanics(t *testing.T) {
	o := MustOUE(4, 1.0)
	agg := NewAggregator(o)
	defer func() {
		if recover() == nil {
			t.Fatal("AddCounts with wrong length did not panic")
		}
	}()
	agg.AddCounts([]int{1, 2}, 2)
}

func TestAggregateOracleMatchesPerUser(t *testing.T) {
	// The aggregate sampler and the faithful per-user path must produce
	// statistically indistinguishable estimates for the same true counts.
	const n = 20000
	const d = 8
	o := MustOUE(d, 1.0)
	trueCounts := []int{8000, 4000, 3000, 2000, 1500, 1000, 500, 0}

	// Per-user path.
	rng1 := NewRand(100, 200)
	aggUser := NewAggregator(o)
	for v, c := range trueCounts {
		for i := 0; i < c; i++ {
			aggUser.Add(o.Perturb(rng1, v))
		}
	}
	// Aggregate path.
	rng2 := NewRand(300, 400)
	aggFast := NewAggregateOracle(o).Collect(rng2, trueCounts)

	if aggFast.N() != n || aggUser.N() != n {
		t.Fatalf("N mismatch: %d vs %d", aggUser.N(), aggFast.N())
	}
	sd := math.Sqrt(Variance(1.0, n))
	eu, ef := aggUser.EstimateAll(), aggFast.EstimateAll()
	for i := range eu {
		want := float64(trueCounts[i]) / n
		if math.Abs(eu[i]-want) > 6*sd {
			t.Errorf("per-user estimate[%d] = %v, want %v", i, eu[i], want)
		}
		if math.Abs(ef[i]-want) > 6*sd {
			t.Errorf("aggregate estimate[%d] = %v, want %v", i, ef[i], want)
		}
	}
}

func TestAggregateOracleValidation(t *testing.T) {
	o := MustOUE(4, 1.0)
	ao := NewAggregateOracle(o)
	rng := NewRand(1, 1)
	t.Run("wrong length", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		ao.Collect(rng, []int{1, 2, 3})
	})
	t.Run("negative count", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		ao.Collect(rng, []int{1, -1, 0, 0})
	})
}

func TestAggregateOracleZeroUsers(t *testing.T) {
	o := MustOUE(4, 1.0)
	agg := NewAggregateOracle(o).Collect(NewRand(1, 1), []int{0, 0, 0, 0})
	if agg.N() != 0 {
		t.Fatalf("N = %d", agg.N())
	}
}

func TestPerturbSparseSizeProperty(t *testing.T) {
	// Report size concentrates around 1/2 + (d−1)q.
	f := func(seed uint64) bool {
		o := MustOUE(128, 1.0)
		rng := NewRand(seed, seed^0x9e3779b9)
		total := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			total += len(o.Perturb(rng, int(seed%128)))
		}
		mean := float64(total) / trials
		want := 0.5 + 127*o.Q()
		return math.Abs(mean-want) < 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
