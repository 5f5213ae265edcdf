package ldp

import (
	"reflect"
	"runtime"
	"testing"
)

// TestAddPackedBatchAccumulates pins that AddPackedBatch on a non-empty
// aggregator adds on top of what it holds, sequential and sharded alike.
func TestAddPackedBatchAccumulates(t *testing.T) {
	const domain, reports = 53, shardMinPackedReports + 50
	oracle := MustOUE(domain, 1.0)
	rng := NewRand(17, 18)
	batch := NewPackedBatch(domain, reports)
	seq := NewAggregator(oracle)
	for i := 0; i < reports; i++ {
		row := batch.Grow()
		oracle.PerturbPackedInto(rng, i%domain, row)
		seq.Add(row.Ones())
	}
	seq.Add(batch.Report(0).Ones())
	for _, workers := range []int{1, 4} {
		a := NewAggregator(oracle)
		a.AddPacked(batch.Report(0))
		a.AddPackedBatch(batch, workers)
		if a.N() != seq.N() {
			t.Fatalf("workers=%d: N=%d, want %d", workers, a.N(), seq.N())
		}
		if !reflect.DeepEqual(a.Counts(), seq.Counts()) {
			t.Fatalf("workers=%d: counts differ from the per-report Add fold", workers)
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
