package ldp

import (
	"fmt"
	"testing"
)

var benchCountSink int

// BenchmarkBinomial measures one draw at p = ¼ over means on both sides of
// the inversion/BTRS switch at n·p = 10 and far into BTRS's range, where the
// cost must stay flat.
func BenchmarkBinomial(b *testing.B) {
	const p = 0.25
	for _, mean := range []int{1, 9, 11, 100, 10_000, 1_000_000} {
		n := int(float64(mean) / p)
		b.Run(fmt.Sprintf("np=%d", mean), func(b *testing.B) {
			b.ReportAllocs()
			rng := NewSource(1, 2)
			for i := 0; i < b.N; i++ {
				benchCountSink += Binomial(rng, n, p)
			}
		})
	}
}

// BenchmarkAggregateCollect measures one aggregate-oracle round over the
// 328-state domain the workloads use, with n users spread at random.
func BenchmarkAggregateCollect(b *testing.B) {
	const d = 328
	for _, n := range []int{250, 2000, 20000} {
		counts := make([]int, d)
		rng := NewSource(3, 4)
		for u := 0; u < n; u++ {
			counts[rng.IntN(d)]++
		}
		for _, eps := range []float64{0.1, 1} {
			ao := NewAggregateOracle(MustOUE(d, eps))
			b.Run(fmt.Sprintf("eps=%v/n=%d", eps, n), func(b *testing.B) {
				b.ReportAllocs()
				rng := NewSource(1, 2)
				for i := 0; i < b.N; i++ {
					ao.Collect(rng, counts)
				}
			})
		}
	}
}
