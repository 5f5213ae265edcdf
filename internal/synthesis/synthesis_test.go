package synthesis

import (
	"math"
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

func newSetup(k int) (*grid.System, *transition.Domain) {
	g := grid.MustNew(k, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	return g, transition.NewDomain(g)
}

// uniformSnapshot builds a snapshot with uniform movement, uniform entering,
// and a fixed per-cell quit frequency.
func uniformSnapshot(dom *transition.Domain, quitFreq float64) *mobility.Snapshot {
	m := mobility.NewModel(dom)
	est := make([]float64, dom.Size())
	g := dom.Space()
	for c := 0; c < g.NumCells(); c++ {
		base, n := dom.MoveBlock(grid.Cell(c))
		for r := 0; r < n; r++ {
			est[base+r] = 1.0 / float64(n)
		}
		if dom.HasEQ() {
			est[dom.EnterIndex(grid.Cell(c))] = 1
			est[dom.QuitIndex(grid.Cell(c))] = quitFreq
		}
	}
	m.SetAll(est)
	return m.Snapshot()
}

func TestNewValidation(t *testing.T) {
	g, _ := newSetup(3)
	rng := ldp.NewRand(1, 1)
	if _, err := New(g, Options{Lambda: 0}, rng); err == nil {
		t.Fatal("Lambda=0 accepted")
	}
	if _, err := New(g, Options{Lambda: -2}, rng); err == nil {
		t.Fatal("negative Lambda accepted")
	}
	if _, err := New(g, Options{Lambda: 5, MaxQuitProb: 2}, rng); err == nil {
		t.Fatal("MaxQuitProb > 1 accepted")
	}
	if _, err := New(g, Options{DisableTermination: true}, rng); err != nil {
		t.Fatalf("NoEQ synthesizer rejected: %v", err)
	}
	if _, err := New(g, Options{Lambda: 5}, rng); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestInitSeedsTarget(t *testing.T) {
	g, dom := newSetup(3)
	s, _ := New(g, Options{Lambda: 10}, ldp.NewRand(2, 3))
	snap := uniformSnapshot(dom, 0.1)
	s.Init(0, 50, snap)
	if s.ActiveCount() != 50 {
		t.Fatalf("ActiveCount = %d", s.ActiveCount())
	}
	d := s.Dataset("x", 1)
	for _, tr := range d.Trajs {
		if tr.Start != 0 || tr.Len() != 1 {
			t.Fatalf("bad seeded stream %+v", tr)
		}
	}
}

func TestStepAutoInit(t *testing.T) {
	g, dom := newSetup(3)
	s, _ := New(g, Options{Lambda: 10}, ldp.NewRand(4, 5))
	snap := uniformSnapshot(dom, 0)
	s.Step(2, 10, snap)
	if s.ActiveCount() != 10 {
		t.Fatalf("ActiveCount after auto-init = %d", s.ActiveCount())
	}
}

func TestSizeAdjustmentExact(t *testing.T) {
	g, dom := newSetup(3)
	s, _ := New(g, Options{Lambda: 1e9}, ldp.NewRand(6, 7)) // effectively no Eq.8 quits
	snap := uniformSnapshot(dom, 0.5)
	s.Init(0, 20, snap)
	targets := []int{35, 35, 7, 7, 0, 12, 1, 100}
	for i, target := range targets {
		s.Step(i+1, target, snap)
		if s.ActiveCount() != target {
			t.Fatalf("step %d: ActiveCount = %d, want %d", i, s.ActiveCount(), target)
		}
	}
}

func TestStreamsAdjacentAndContiguous(t *testing.T) {
	g, dom := newSetup(4)
	s, _ := New(g, Options{Lambda: 8}, ldp.NewRand(8, 9))
	snap := uniformSnapshot(dom, 0.3)
	s.Init(0, 40, snap)
	for t0 := 1; t0 < 30; t0++ {
		s.Step(t0, 40, snap)
	}
	d := s.Dataset("x", 30)
	if err := d.Validate(g, true); err != nil {
		t.Fatalf("synthetic dataset invalid: %v", err)
	}
}

func TestEq8QuitReweighting(t *testing.T) {
	// With quit frequency q per cell and movement mass 1, QuitProb = q/(1+q).
	// Eq. 8 multiplies by ℓ/λ: at ℓ=λ the per-step quit probability equals
	// QuitProb. Check the observed termination rate on length-1 streams with
	// λ=1 (so ℓ/λ=1 on the first step).
	g, dom := newSetup(3)
	snap := uniformSnapshot(dom, 1.0) // QuitProb = 0.5
	const n = 20000
	s, _ := New(g, Options{Lambda: 1}, ldp.NewRand(10, 11))
	s.Init(0, n, snap)
	s.Step(1, n, snap) // size adjustment respawns; count completions instead
	completed := len(s.Dataset("x", 2).Trajs) - n
	rate := float64(completed) / n
	if math.Abs(rate-0.5) > 0.02 {
		t.Fatalf("termination rate = %v, want ≈0.5", rate)
	}
}

func TestEq8LongerStreamsQuitMore(t *testing.T) {
	g, dom := newSetup(3)
	snap := uniformSnapshot(dom, 0.25) // QuitProb = 0.2
	quitAt := func(lambda float64, steps int) float64 {
		const n = 8000
		s, _ := New(g, Options{Lambda: lambda}, ldp.NewRand(12, 13))
		s.Init(0, n, snap)
		for t0 := 1; t0 <= steps; t0++ {
			s.Step(t0, n, snap)
		}
		// Completed streams = total − still-active.
		return float64(len(s.Dataset("x", steps+1).Trajs)-n) / float64(n)
	}
	short := quitAt(100, 3) // ℓ/λ small → few quits
	long := quitAt(2, 3)    // ℓ/λ large → many quits
	if long <= short {
		t.Fatalf("length reweighting inactive: long=%v short=%v", long, short)
	}
}

func TestMaxQuitProbCap(t *testing.T) {
	g, dom := newSetup(3)
	snap := uniformSnapshot(dom, 100) // QuitProb ≈ 0.99
	s, _ := New(g, Options{Lambda: 0.001, MaxQuitProb: 0.3}, ldp.NewRand(14, 15))
	const n = 20000
	s.Init(0, n, snap)
	s.Step(1, n, snap)
	completed := len(s.Dataset("x", 2).Trajs) - n
	rate := float64(completed) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("capped termination rate = %v, want ≈0.3", rate)
	}
}

func TestDisableTermination(t *testing.T) {
	g, _ := newSetup(3)
	dom := transition.NewMoveOnlyDomain(g)
	snap := uniformSnapshot(dom, 0)
	s, _ := New(g, Options{DisableTermination: true}, ldp.NewRand(16, 17))
	s.Init(0, 25, snap)
	for t0 := 1; t0 < 20; t0++ {
		s.Step(t0, 3 /* ignored */, snap)
		if s.ActiveCount() != 25 {
			t.Fatalf("NoEQ population changed at t=%d: %d", t0, s.ActiveCount())
		}
	}
	d := s.Dataset("x", 20)
	if len(d.Trajs) != 25 {
		t.Fatalf("NoEQ dataset has %d streams", len(d.Trajs))
	}
	for _, tr := range d.Trajs {
		if tr.Len() != 20 {
			t.Fatalf("NoEQ stream length = %d, want 20 (never terminates)", tr.Len())
		}
	}
}

func TestTerminationWeightedByQuitDistribution(t *testing.T) {
	// Two-cell world: streams resting at cell with high quit mass should be
	// terminated far more often during size adjustment.
	g := grid.MustNew(2, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	dom := transition.NewDomain(g)
	m := mobility.NewModel(dom)
	est := make([]float64, dom.Size())
	for c := 0; c < 4; c++ {
		// Strong self-loops so streams stay on their cell.
		idx, _ := dom.MoveIndex(grid.Cell(c), grid.Cell(c))
		est[idx] = 1
		est[dom.EnterIndex(grid.Cell(c))] = 1
	}
	est[dom.QuitIndex(0)] = 1.0 // cell 0: heavy quit mass
	// cells 1..3: zero quit mass
	m.SetAll(est)
	snap := m.Snapshot()

	terminatedAt0 := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		s, _ := New(g, Options{Lambda: 1e9}, ldp.NewRand(uint64(trial), 99))
		// Hand-build a population: 1 stream resting at cell 0, 3 at other
		// cells. The self-loops extend each by its own cell, and shrinking
		// the target to 3 makes size adjustment terminate one of them.
		s.Restore(State{Started: true, Active: []trajectory.CellTrajectory{
			{Start: 0, Cells: []grid.Cell{0}},
			{Start: 0, Cells: []grid.Cell{1}},
			{Start: 0, Cells: []grid.Cell{2}},
			{Start: 0, Cells: []grid.Cell{3}},
		}})
		s.Step(1, 3, snap)
		for _, tr := range s.State().Completed {
			if tr.Cells[len(tr.Cells)-1] == 0 {
				terminatedAt0++
			}
		}
	}
	rate := float64(terminatedAt0) / trials
	if rate < 0.95 {
		t.Fatalf("quit-weighted termination rate at heavy cell = %v, want ≈1", rate)
	}
}

func TestDatasetIncludesActiveAndCompleted(t *testing.T) {
	g, dom := newSetup(3)
	snap := uniformSnapshot(dom, 0.2)
	s, _ := New(g, Options{Lambda: 5}, ldp.NewRand(20, 21))
	s.Init(0, 30, snap)
	for t0 := 1; t0 < 15; t0++ {
		s.Step(t0, 30, snap)
	}
	d := s.Dataset("x", 15)
	if len(d.Trajs) < 30 {
		t.Fatalf("dataset smaller than population: %d", len(d.Trajs))
	}
	points := 0
	for _, tr := range d.Trajs {
		points += tr.Len()
	}
	// Population was held at 30 across 15 timestamps → exactly 450 points.
	if points != 450 {
		t.Fatalf("total points = %d, want 450", points)
	}
}

func TestZeroTargetStaysEmpty(t *testing.T) {
	g, dom := newSetup(3)
	snap := uniformSnapshot(dom, 0.2)
	s, _ := New(g, Options{Lambda: 5}, ldp.NewRand(22, 23))
	s.Init(0, 0, snap)
	for t0 := 1; t0 < 5; t0++ {
		s.Step(t0, 0, snap)
		if s.ActiveCount() != 0 {
			t.Fatalf("empty population grew at t=%d", t0)
		}
	}
}
