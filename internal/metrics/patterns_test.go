package metrics

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/trajectory"
)

func TestMinePatternsHandComputed(t *testing.T) {
	d := &trajectory.Dataset{T: 10, Trajs: []trajectory.CellTrajectory{
		{Start: 0, Cells: []grid.Cell{1, 2, 3}},
		{Start: 0, Cells: []grid.Cell{1, 2}},
	}}
	counts := minePatterns(d, 0, 10, 2, 3)
	key12 := uint64(1)<<patternCellBits | 2 | uint64(2)<<60
	key23 := uint64(2)<<patternCellBits | 3 | uint64(2)<<60
	key123 := (uint64(1)<<patternCellBits|2)<<patternCellBits | 3 | uint64(3)<<60
	if counts[key12] != 2 {
		t.Fatalf("count(1→2) = %d, want 2", counts[key12])
	}
	if counts[key23] != 1 {
		t.Fatalf("count(2→3) = %d, want 1", counts[key23])
	}
	if counts[key123] != 1 {
		t.Fatalf("count(1→2→3) = %d, want 1", counts[key123])
	}
	if len(counts) != 3 {
		t.Fatalf("mined %d patterns, want 3: %v", len(counts), counts)
	}
}

func TestMinePatternsWindowClipping(t *testing.T) {
	d := &trajectory.Dataset{T: 10, Trajs: []trajectory.CellTrajectory{
		{Start: 0, Cells: []grid.Cell{1, 2, 3, 4, 5}},
	}}
	// Window [1,3): only cells at t=1,2 (values 2,3) are visible.
	counts := minePatterns(d, 1, 2, 2, 3)
	key23 := uint64(2)<<patternCellBits | 3 | uint64(2)<<60
	if counts[key23] != 1 || len(counts) != 1 {
		t.Fatalf("window clipping failed: %v", counts)
	}
}

func TestMinePatternsTooShort(t *testing.T) {
	d := &trajectory.Dataset{T: 5, Trajs: []trajectory.CellTrajectory{
		{Start: 0, Cells: []grid.Cell{7}},
	}}
	if counts := minePatterns(d, 0, 5, 2, 4); len(counts) != 0 {
		t.Fatalf("mined patterns from a 1-point stream: %v", counts)
	}
}

func TestTopPatternsDeterministicTieBreak(t *testing.T) {
	d := &trajectory.Dataset{T: 10, Trajs: []trajectory.CellTrajectory{
		{Start: 0, Cells: []grid.Cell{1, 2}},
		{Start: 0, Cells: []grid.Cell{3, 4}},
		{Start: 0, Cells: []grid.Cell{5, 6}},
	}}
	a := topPatterns(d, 0, 10, 2, 2, 2)
	b := topPatterns(d, 0, 10, 2, 2, 2)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("topPatterns sizes: %d, %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatal("tie-break not deterministic")
		}
	}
}

// TestTopPatternsMatchesReflectionSort pins the slices.SortFunc order to the
// sort.Slice comparator it replaced — count descending, key ascending — on a
// mined fixture dense with count ties: the same top-n set for every n.
func TestTopPatternsMatchesReflectionSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	d := &trajectory.Dataset{T: 40}
	for i := 0; i < 400; i++ {
		cells := make([]grid.Cell, 2+rng.IntN(12))
		for j := range cells {
			cells[j] = grid.Cell(rng.IntN(9))
		}
		d.Trajs = append(d.Trajs, trajectory.CellTrajectory{Start: rng.IntN(28), Cells: cells})
	}
	counts := minePatterns(d, 5, 30, 2, 4)
	type kc struct {
		key uint64
		c   int
	}
	all := make([]kc, 0, len(counts))
	for k, c := range counts {
		all = append(all, kc{k, c})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].c != all[b].c {
			return all[a].c > all[b].c
		}
		return all[a].key < all[b].key
	})
	if len(all) < 500 {
		t.Fatalf("fixture mined only %d patterns", len(all))
	}
	for _, n := range []int{1, 2, 10, 100, 333, len(all) - 1, len(all), len(all) + 5} {
		want := map[uint64]bool{}
		for _, e := range all[:min(n, len(all))] {
			want[e.key] = true
		}
		if got := topPatterns(d, 5, 30, 2, 4, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("top-%d set differs from the sort.Slice order", n)
		}
	}
}

func TestF1(t *testing.T) {
	mk := func(keys ...uint64) map[uint64]bool {
		m := map[uint64]bool{}
		for _, k := range keys {
			m[k] = true
		}
		return m
	}
	tests := []struct {
		a, b map[uint64]bool
		want float64
	}{
		{mk(1, 2, 3), mk(1, 2, 3), 1},
		{mk(1, 2), mk(3, 4), 0},
		{mk(1, 2, 3, 4), mk(3, 4, 5, 6), 0.5},
		{mk(), mk(), 1},
		{mk(1), mk(), 0},
		{mk(), mk(1), 0},
	}
	for i, tt := range tests {
		if got := f1(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("case %d: f1 = %v, want %v", i, got, tt.want)
		}
	}
}

func TestPatternKeysNoCollision(t *testing.T) {
	// Patterns of different lengths or cells must map to distinct keys.
	d := &trajectory.Dataset{T: 10, Trajs: []trajectory.CellTrajectory{
		{Start: 0, Cells: []grid.Cell{0, 0, 0}},
	}}
	counts := minePatterns(d, 0, 10, 2, 3)
	// Expect exactly: (0,0)×2, (0,0,0)×1 — two distinct keys.
	if len(counts) != 2 {
		t.Fatalf("key collision across lengths: %v", counts)
	}
}
