package ldp

import (
	"runtime"
	"testing"
)

func makeOUEReports(n, domain int, eps float64, seed uint64) (*OUE, [][]int) {
	oracle := MustOUE(domain, eps)
	rng := NewRand(seed, seed+1)
	reports := make([][]int, n)
	for i := range reports {
		reports[i] = oracle.Perturb(rng, i%domain)
	}
	return oracle, reports
}

func TestAddReportsMatchesSequential(t *testing.T) {
	oracle, reports := makeOUEReports(3*shardMinReports, 97, 1.0, 11)
	seq := NewAggregator(oracle)
	for _, r := range reports {
		seq.Add(r)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		par := NewAggregator(oracle)
		par.AddReports(reports, workers)
		if par.N() != seq.N() {
			t.Fatalf("workers=%d: N=%d, want %d", workers, par.N(), seq.N())
		}
		got, want := par.EstimateAll(), seq.EstimateAll()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: estimate[%d]=%v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestAddReportsSmallRoundSequentialFallback(t *testing.T) {
	oracle, reports := makeOUEReports(17, 31, 1.0, 13)
	a := NewAggregator(oracle)
	a.AddReports(reports, 8)
	if a.N() != 17 {
		t.Fatalf("N=%d, want 17", a.N())
	}
}

func TestAddReportsAccumulates(t *testing.T) {
	// AddReports on a non-empty aggregator must add on top, not replace.
	oracle, reports := makeOUEReports(2*shardMinReports, 53, 1.0, 17)
	a := NewAggregator(oracle)
	a.Add(reports[0])
	a.AddReports(reports[1:], 4)
	seq := NewAggregator(oracle)
	for _, r := range reports {
		seq.Add(r)
	}
	if a.N() != seq.N() {
		t.Fatalf("N=%d, want %d", a.N(), seq.N())
	}
	got, want := a.EstimateAll(), seq.EstimateAll()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimate[%d]=%v, want %v", i, got[i], want[i])
		}
	}
}

func TestShardBounds(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{10, 3}, {1, 8}, {2048, 16}, {100, 100}, {101, 7},
	} {
		bounds := shardBounds(tc.n, tc.workers)
		if bounds[0] != 0 || bounds[len(bounds)-1] != tc.n {
			t.Fatalf("n=%d workers=%d: bounds %v", tc.n, tc.workers, bounds)
		}
		covered := 0
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("n=%d workers=%d: non-increasing bounds %v", tc.n, tc.workers, bounds)
			}
			covered += bounds[i] - bounds[i-1]
		}
		if covered != tc.n {
			t.Fatalf("n=%d workers=%d: covered %d", tc.n, tc.workers, covered)
		}
		if len(bounds)-1 > tc.workers {
			t.Fatalf("n=%d workers=%d: %d chunks", tc.n, tc.workers, len(bounds)-1)
		}
	}
}

func TestDefaultWorkersFollowsGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	if got := DefaultWorkers(); got != 1 {
		t.Fatalf("DefaultWorkers under GOMAXPROCS(1) = %d, want 1", got)
	}
}
