package ldp

import (
	"fmt"
	"testing"
)

var benchOnesSink []int

// BenchmarkPerturb measures one report's perturbation (ns/op = ns/report) in
// both representations over the budgets and domains the workloads use. The
// packed form must report 0 allocs/op.
func BenchmarkPerturb(b *testing.B) {
	for _, d := range []int{328, 1024} {
		for _, eps := range []float64{0.1, 1, 4} {
			o := MustOUE(d, eps)
			b.Run(fmt.Sprintf("packed/eps=%v/d=%d", eps, d), func(b *testing.B) {
				b.ReportAllocs()
				rng := NewSource(1, 2)
				dst := make(PackedReport, PackedWords(d))
				for i := 0; i < b.N; i++ {
					o.PerturbPackedInto(rng, i%d, dst)
				}
			})
			b.Run(fmt.Sprintf("sparse/eps=%v/d=%d", eps, d), func(b *testing.B) {
				b.ReportAllocs()
				rng := NewSource(1, 2)
				for i := 0; i < b.N; i++ {
					benchOnesSink = o.Perturb(rng, i%d)
				}
			})
		}
	}
}
