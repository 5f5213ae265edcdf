package ldp

import (
	"math"
	"testing"
)

// Statistical correctness harness for the OUE collection paths, per-user and
// aggregate: over many seeded trials, each path's debiased estimates must be (a) unbiased —
// the per-index mean tracks the true frequency within a few standard errors
// — and (b) correctly calibrated — the empirical estimator variance must
// match the analytic Variance(n) formula the engine feeds into the DMU
// error comparison (Eq. 7), since a miscalibrated err_upd silently skews
// the significant-transition selection.
//
// Tolerances are set at ≥4σ of the relevant sampling distribution, so a
// failure indicates a real defect, not an unlucky seed (the seeds are fixed
// regardless).

const (
	statDomain = 16
	statEps    = 1.0
	statUsers  = 1500
	statTrials = 250
)

// statTrueCounts fixes a skewed true distribution over the domain: index i
// holds weight i+1, so frequencies span [1/Σ, d/Σ] and stay well below the
// regime where the small-f variance approximation breaks down.
func statTrueCounts() ([]int, []float64) {
	counts := make([]int, statDomain)
	total := 0
	for i := range counts {
		counts[i] = (i + 1) * statUsers / ((statDomain * (statDomain + 1)) / 2)
		total += counts[i]
	}
	// Put the rounding remainder on index 0.
	counts[0] += statUsers - total
	freqs := make([]float64, statDomain)
	for i, c := range counts {
		freqs[i] = float64(c) / float64(statUsers)
	}
	return counts, freqs
}

// runTrials runs the harness for one collection path: estimate returns one trial's
// debiased frequency vector over the fixed true counts.
func runTrials(t *testing.T, name string, analyticVar float64, estimate func(rng Rand, counts []int) []float64) {
	t.Helper()
	counts, freqs := statTrueCounts()

	mean := make([]float64, statDomain)
	m2 := make([]float64, statDomain) // running Σ(x−mean)² via Welford
	rng := NewRand(0xfeed, 0xbeef)
	for trial := 0; trial < statTrials; trial++ {
		est := estimate(rng, counts)
		if len(est) != statDomain {
			t.Fatalf("%s: estimate length %d", name, len(est))
		}
		for i, x := range est {
			delta := x - mean[i]
			mean[i] += delta / float64(trial+1)
			m2[i] += delta * (x - mean[i])
		}
	}

	// Unbiasedness: the mean of statTrials estimates has standard error
	// √(Var/trials); demand every index within 5σ.
	seMean := math.Sqrt(analyticVar / float64(statTrials))
	for i := range mean {
		if diff := math.Abs(mean[i] - freqs[i]); diff > 5*seMean {
			t.Errorf("%s: index %d biased: mean estimate %.4f, true %.4f (|Δ|=%.4f > 5σ=%.4f)",
				name, i, mean[i], freqs[i], diff, 5*seMean)
		}
	}

	// Variance calibration: the empirical variance averaged over the domain
	// must sit near the analytic per-index variance. The averaged sample
	// variance concentrates tightly (relative sd ≈ √(2/(d·trials)) ≈ 2%),
	// and the true-frequency correction to the small-f formula is ≤ ~6% at
	// these parameters, so a ±20% band is ≥ 4σ wide.
	empirical := 0.0
	for i := range m2 {
		empirical += m2[i] / float64(statTrials-1)
	}
	empirical /= statDomain
	if ratio := empirical / analyticVar; ratio < 0.8 || ratio > 1.2 {
		t.Errorf("%s: empirical variance %.3e vs analytic %.3e (ratio %.3f outside [0.8, 1.2])",
			name, empirical, analyticVar, ratio)
	}
}

func TestOUEStatisticalCorrectness(t *testing.T) {
	oracle := MustOUE(statDomain, statEps)
	runTrials(t, "OUE", oracle.Variance(statUsers), func(rng Rand, counts []int) []float64 {
		agg := NewAggregator(oracle)
		for v, c := range counts {
			for k := 0; k < c; k++ {
				agg.Add(oracle.Perturb(rng, v))
			}
		}
		return agg.EstimateAll()
	})
}

func TestOUEAggregatePathStatisticalCorrectness(t *testing.T) {
	// The Binomial shortcut must be calibrated exactly like the per-user
	// path — it feeds the same Variance(n) into the DMU.
	oracle := MustOUE(statDomain, statEps)
	ao := NewAggregateOracle(oracle)
	runTrials(t, "OUE-aggregate", oracle.Variance(statUsers), func(rng Rand, counts []int) []float64 {
		return ao.Collect(rng, counts).EstimateAll()
	})
}
