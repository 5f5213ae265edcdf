package metrics

import (
	"cmp"
	"math/rand/v2"
	"slices"

	"retrasyn/internal/trajectory"
)

// Pattern F1 (paper §V-B): a pattern is an ordered sequence of consecutive
// cells. Within a random φ-window the top-N most frequent patterns of the
// original and synthetic datasets are compared by F1 score; the reported
// metric averages over NumWindows random windows.
//
// Patterns of length 2–5 pack into a uint64 key: 12 bits per cell (supports
// K ≤ 64) plus a 4-bit length tag, which keeps mining allocation-free per
// n-gram.

const (
	patternCellBits = 12
	patternCellMask = 1<<patternCellBits - 1
	// maxPackedLen is the longest pattern that fits the packing scheme.
	maxPackedLen = 5
)

// patternF1 computes the metric between the evaluator's original dataset
// and syn over shared random windows.
func (e *Evaluator) patternF1(syn *trajectory.Dataset, rng *rand.Rand) float64 {
	phi := min(e.opts.Phi, e.orig.T)
	minL, maxL := e.opts.PatternMinLen, e.opts.PatternMaxLen
	if maxL > maxPackedLen {
		maxL = maxPackedLen
	}
	total, n := 0.0, 0
	for w := 0; w < e.opts.NumWindows; w++ {
		t0 := 0
		if e.orig.T > phi {
			t0 = rng.IntN(e.orig.T - phi + 1)
		}
		op := topPatterns(e.origData, t0, phi, minL, maxL, e.opts.TopNPatterns)
		if len(op) == 0 {
			continue
		}
		sp := topPatterns(syn, t0, phi, minL, maxL, e.opts.TopNPatterns)
		total += f1(op, sp)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// minePatterns counts every consecutive-cell n-gram of length [minL, maxL]
// whose span lies inside [t0, t0+phi).
func minePatterns(d *trajectory.Dataset, t0, phi, minL, maxL int) map[uint64]int {
	counts := make(map[uint64]int)
	hi := t0 + phi // exclusive
	for _, tr := range d.Trajs {
		// Clip the trajectory to the window.
		lo := max(tr.Start, t0)
		end := min(tr.End(), hi-1)
		if end-lo+1 < minL {
			continue
		}
		cells := tr.Cells[lo-tr.Start : end-tr.Start+1]
		for i := 0; i < len(cells); i++ {
			var key uint64
			for l := 1; l <= maxL && i+l <= len(cells); l++ {
				key = key<<patternCellBits | uint64(cells[i+l-1])&patternCellMask
				if l >= minL {
					counts[key|uint64(l)<<60]++
				}
			}
		}
	}
	return counts
}

// topPatterns returns the top-n pattern keys of the window as a set.
func topPatterns(d *trajectory.Dataset, t0, phi, minL, maxL, n int) map[uint64]bool {
	counts := minePatterns(d, t0, phi, minL, maxL)
	type kc struct {
		key uint64
		c   int
	}
	all := make([]kc, 0, len(counts))
	for k, c := range counts {
		all = append(all, kc{k, c})
	}
	slices.SortFunc(all, func(a, b kc) int {
		if a.c != b.c {
			return cmp.Compare(b.c, a.c)
		}
		return cmp.Compare(a.key, b.key) // deterministic tie-break
	})
	if len(all) > n {
		all = all[:n]
	}
	set := make(map[uint64]bool, len(all))
	for _, e := range all {
		set[e.key] = true
	}
	return set
}

// f1 scores the overlap of two pattern sets.
func f1(a, b map[uint64]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(a)+len(b))
}
