package ldp

import (
	"fmt"
	"runtime"
	"sync"
)

// Sharded report aggregation. Folding a collection round's packed reports
// into the per-index counts is embarrassingly parallel and exactly
// order-independent (integer addition commutes), so sharding across workers
// changes nothing about the estimates — per-user mode at paper scale folds
// 10⁵–10⁶ reports per round, which is the curator's aggregation hot path.

// shardMinPackedReports is the round size below which spawning workers costs
// more than the fold itself. The packed fold's per-report work is so small
// (a handful of ALU ops per word) that sharding only pays for large rounds.
const shardMinPackedReports = 1 << 14

// DefaultWorkers is the worker count the engine and the curator use for
// sharded aggregation: one per CPU the Go scheduler may run on
// (GOMAXPROCS), so a process CPU limit caps the fold's parallelism too.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// shardBounds splits n items into at most workers contiguous chunks and
// returns the chunk boundaries (len = chunks+1).
func shardBounds(n, workers int) []int {
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	bounds := []int{0}
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds = append(bounds, hi)
	}
	return bounds
}

// AddPackedBatch folds a whole packed round into the aggregator with the
// word-parallel carry-save counter network (popcountFold), sharding the rows
// across up to workers goroutines for large rounds. Each shard folds a
// contiguous row range into its own cache-local count vector; the shards
// then merge in ascending shard order — deterministic, and since integer
// addition commutes, the counts (and therefore the estimates) are
// bit-identical to calling Add on every report's ones in order.
func (a *Aggregator) AddPackedBatch(b *PackedBatch, workers int) {
	if b.domain != len(a.counts) {
		panic(fmt.Sprintf("ldp: AddPackedBatch domain %d ≠ aggregator domain %d", b.domain, len(a.counts)))
	}
	n := b.Len()
	if workers <= 1 || n < shardMinPackedReports {
		popcountFold(a.counts, b.data, b.words, 0, n)
		a.n += n
		return
	}
	bounds := shardBounds(n, workers)
	shards := make([][]int, len(bounds)-1)
	var wg sync.WaitGroup
	for w := 0; w < len(bounds)-1; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts := make([]int, len(a.counts))
			popcountFold(counts, b.data, b.words, bounds[w], bounds[w+1])
			shards[w] = counts
		}(w)
	}
	wg.Wait()
	for _, counts := range shards {
		for i, c := range counts {
			a.counts[i] += c
		}
	}
	a.n += n
}
