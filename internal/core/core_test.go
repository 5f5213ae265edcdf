package core

import (
	"math"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

func testGrid() *grid.System {
	return grid.MustNew(4, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
}

// walkDataset builds a random-walk cell dataset with entering/quitting churn
// over any spatial discretization.
func walkDataset(g spatial.Discretizer, users, T int, meanLen float64, seed uint64) *trajectory.Dataset {
	rng := ldp.NewRand(seed, seed+1)
	d := &trajectory.Dataset{Name: "walk", T: T}
	for u := 0; u < users; u++ {
		start := rng.IntN(T)
		c := spatial.Cell(rng.IntN(g.NumCells()))
		cells := []spatial.Cell{c}
		for t := start + 1; t < T; t++ {
			if rng.Float64() < 1/meanLen {
				break
			}
			ns := g.Neighbors(c)
			c = ns[rng.IntN(len(ns))]
			cells = append(cells, c)
		}
		d.Trajs = append(d.Trajs, trajectory.CellTrajectory{Start: start, Cells: cells})
	}
	return d
}

func defaultOpts(div allocation.Division) Options {
	return Options{Config: Config{
		Space:    testGrid(),
		Epsilon:  1.0,
		W:        5,
		Division: div,
		Lambda:   6,
		Seed:     42,
	}}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Options)
	}{
		{"nil space", func(o *Options) { o.Space = nil }},
		{"zero epsilon", func(o *Options) { o.Epsilon = 0 }},
		{"negative epsilon", func(o *Options) { o.Epsilon = -1 }},
		{"zero w", func(o *Options) { o.W = 0 }},
		{"zero lambda with EQ", func(o *Options) { o.Lambda = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			opts := defaultOpts(allocation.Population)
			tt.mutate(&opts)
			if _, err := New(opts); err == nil {
				t.Fatal("want error")
			}
		})
	}
	// NoEQ tolerates Lambda=0.
	opts := defaultOpts(allocation.Budget)
	opts.Lambda = 0
	opts.DisableEQ = true
	if _, err := New(opts); err != nil {
		t.Fatalf("NoEQ with zero lambda rejected: %v", err)
	}
}

func TestRunProducesValidSynthetic(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 300, 40, 8, 7)
	stream := trajectory.NewStream(data)
	for _, div := range []allocation.Division{allocation.Budget, allocation.Population} {
		opts := defaultOpts(div)
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		syn, stats := e.Run(stream, "syn")
		if err := syn.Validate(g, true); err != nil {
			t.Fatalf("%v: invalid synthetic dataset: %v", div, err)
		}
		if stats.Timestamps != data.T {
			t.Fatalf("%v: processed %d timestamps", div, stats.Timestamps)
		}
		if stats.Rounds == 0 || stats.TotalReports == 0 {
			t.Fatalf("%v: no collection happened: %+v", div, stats)
		}
	}
}

func TestSyntheticSizeTracksRealSize(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 400, 40, 10, 11)
	stream := trajectory.NewStream(data)
	e, _ := New(defaultOpts(allocation.Population))
	syn, _ := e.Run(stream, "syn")
	// The size-adjustment guarantee: per-timestamp active counts match.
	synCounts := syn.ActiveCounts()
	for tt, want := range stream.Active {
		if synCounts[tt] != want {
			t.Fatalf("t=%d: synthetic active %d, real %d", tt, synCounts[tt], want)
		}
	}
}

func TestBudgetDivisionWindowInvariant(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 250, 60, 9, 13)
	stream := trajectory.NewStream(data)
	for _, strat := range []string{StrategyAdaptive, StrategyUniform, StrategySample} {
		opts := defaultOpts(allocation.Budget)
		opts.Strategy = strat
		e, _ := New(opts)
		e.Run(stream, "syn")
		// w-event ε-LDP for budget division: every user reports at every
		// timestamp it is present, so the per-user window sum is bounded by
		// the global per-timestamp budget sum.
		if got := e.Ledger().MaxWindowSum(opts.W); got > opts.Epsilon+1e-9 {
			t.Fatalf("%s: window budget %v exceeds ε=%v", strat, got, opts.Epsilon)
		}
	}
}

func TestPopulationDivisionUserInvariant(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 250, 60, 9, 17)
	stream := trajectory.NewStream(data)
	for _, strat := range []string{StrategyAdaptive, StrategyUniform, StrategySample} {
		opts := defaultOpts(allocation.Population)
		opts.Strategy = strat
		e, _ := New(opts)
		e.Run(stream, "syn")
		// w-event ε-LDP for population division: no user spends more than ε
		// within any window of w timestamps.
		got := e.Ledger().MaxUserWindowSum(opts.W, func(int) float64 { return opts.Epsilon })
		if got > opts.Epsilon+1e-9 {
			t.Fatalf("%s: per-user window budget %v exceeds ε=%v", strat, got, opts.Epsilon)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 150, 30, 8, 23)
	stream := trajectory.NewStream(data)
	run := func() *trajectory.Dataset {
		e, _ := New(defaultOpts(allocation.Population))
		syn, _ := e.Run(stream, "syn")
		return syn
	}
	a, b := run(), run()
	if len(a.Trajs) != len(b.Trajs) {
		t.Fatalf("non-deterministic sizes: %d vs %d", len(a.Trajs), len(b.Trajs))
	}
	for i := range a.Trajs {
		if a.Trajs[i].Start != b.Trajs[i].Start || a.Trajs[i].Len() != b.Trajs[i].Len() {
			t.Fatalf("non-deterministic stream %d", i)
		}
		for j := range a.Trajs[i].Cells {
			if a.Trajs[i].Cells[j] != b.Trajs[i].Cells[j] {
				t.Fatalf("non-deterministic cell %d of stream %d", j, i)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 150, 30, 8, 29)
	stream := trajectory.NewStream(data)
	run := func(seed uint64) *trajectory.Dataset {
		opts := defaultOpts(allocation.Population)
		opts.Seed = seed
		e, _ := New(opts)
		syn, _ := e.Run(stream, "syn")
		return syn
	}
	a, b := run(1), run(2)
	same := len(a.Trajs) == len(b.Trajs)
	if same {
		for i := range a.Trajs {
			if a.Trajs[i].Len() != b.Trajs[i].Len() {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical shape (suspicious)")
	}
}

func TestNoEQAblation(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 300, 30, 8, 31)
	stream := trajectory.NewStream(data)
	opts := defaultOpts(allocation.Population)
	opts.DisableEQ = true
	opts.Lambda = 0 // unused
	e, _ := New(opts)
	syn, _ := e.Run(stream, "syn")
	if e.Domain().HasEQ() {
		t.Fatal("NoEQ engine has EQ states in its domain")
	}
	// NoEQ streams never terminate: all spans end at the final timestamp.
	for _, tr := range syn.Trajs {
		if tr.End() != data.T-1 {
			t.Fatalf("NoEQ stream ends at %d, want %d", tr.End(), data.T-1)
		}
	}
	// Population is fixed at its initialization size.
	sizes := map[int]bool{}
	for _, tr := range syn.Trajs {
		sizes[tr.Start] = true
	}
	if len(sizes) != 1 {
		t.Fatalf("NoEQ streams started at %d distinct timestamps, want 1", len(sizes))
	}
}

func TestAllUpdateAblationSelectsEverything(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 300, 30, 8, 37)
	stream := trajectory.NewStream(data)
	opts := defaultOpts(allocation.Population)
	opts.DisableDMU = true
	e, _ := New(opts)
	domainSize := e.Domain().Size()
	sawRound := false
	for tt := 0; tt < data.T; tt++ {
		res, _ := e.ProcessTimestamp(tt, stream.At(tt), stream.Active[tt])
		if res.Reported {
			sawRound = true
			if res.NumSignificant != domainSize {
				t.Fatalf("AllUpdate selected %d of %d", res.NumSignificant, domainSize)
			}
		}
	}
	if !sawRound {
		t.Fatal("no rounds happened")
	}
}

func TestDMUSelectsSubset(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 300, 40, 8, 41)
	stream := trajectory.NewStream(data)
	e, _ := New(defaultOpts(allocation.Population))
	domainSize := e.Domain().Size()
	partial := false
	for tt := 0; tt < data.T; tt++ {
		res, _ := e.ProcessTimestamp(tt, stream.At(tt), stream.Active[tt])
		if res.Reported && res.NumSignificant < domainSize && res.NumSignificant >= 0 {
			partial = true
		}
	}
	if !partial {
		t.Fatal("DMU never made a partial selection — suspicious for noisy estimates")
	}
}

func TestAggregateMatchesPerUserQuality(t *testing.T) {
	// Both oracle modes should yield synthetic data of comparable density
	// fidelity; this is a smoke-level statistical check.
	g := testGrid()
	data := walkDataset(g, 500, 30, 10, 43)
	stream := trajectory.NewStream(data)
	density := func(d *trajectory.Dataset) []float64 {
		counts := make([]float64, g.NumCells())
		for _, tr := range d.Trajs {
			for _, c := range tr.Cells {
				counts[c]++
			}
		}
		total := 0.0
		for _, c := range counts {
			total += c
		}
		if total > 0 {
			for i := range counts {
				counts[i] /= total
			}
		}
		return counts
	}
	l1 := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	}
	ref := density(data)
	var errs [2]float64
	for i, mode := range []OracleMode{PerUser, Aggregate} {
		opts := defaultOpts(allocation.Population)
		opts.OracleMode = mode
		e, _ := New(opts)
		syn, _ := e.Run(stream, "syn")
		errs[i] = l1(ref, density(syn))
	}
	if math.Abs(errs[0]-errs[1]) > 0.5 {
		t.Fatalf("oracle modes diverge: per-user L1=%v aggregate L1=%v", errs[0], errs[1])
	}
}

func TestTimingsAccumulate(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 200, 30, 8, 47)
	stream := trajectory.NewStream(data)
	opts := defaultOpts(allocation.Population)
	opts.OracleMode = PerUser
	e, _ := New(opts)
	_, stats := e.Run(stream, "syn")
	if stats.Timings.UserSide <= 0 {
		t.Error("user-side timing not recorded")
	}
	if stats.Timings.ModelConstruction <= 0 {
		t.Error("model construction timing not recorded")
	}
	if stats.Timings.Synthesis <= 0 {
		t.Error("synthesis timing not recorded")
	}
	if stats.Timings.Total() <= 0 {
		t.Error("total timing not positive")
	}
}

func TestEmptyStream(t *testing.T) {
	d := &trajectory.Dataset{Name: "empty", T: 10}
	stream := trajectory.NewStream(d)
	e, _ := New(defaultOpts(allocation.Population))
	syn, stats := e.Run(stream, "syn")
	if len(syn.Trajs) != 0 {
		t.Fatalf("empty stream produced %d synthetic streams", len(syn.Trajs))
	}
	if stats.Rounds != 0 {
		t.Fatalf("empty stream ran %d rounds", stats.Rounds)
	}
}

func TestAllUsersQuitMidStream(t *testing.T) {
	// Everyone quits at t=10; the engine must keep running and the synthetic
	// population must drain to zero.
	g := testGrid()
	d := &trajectory.Dataset{Name: "quitall", T: 20}
	for u := 0; u < 100; u++ {
		cells := make([]grid.Cell, 10)
		c := grid.Cell(u % g.NumCells())
		for i := range cells {
			cells[i] = c
		}
		d.Trajs = append(d.Trajs, trajectory.CellTrajectory{Start: 0, Cells: cells})
	}
	stream := trajectory.NewStream(d)
	e, _ := New(defaultOpts(allocation.Population))
	syn, _ := e.Run(stream, "syn")
	counts := syn.ActiveCounts()
	for tt := 10; tt < 20; tt++ {
		if counts[tt] != 0 {
			t.Fatalf("t=%d: %d synthetic streams alive after all users quit", tt, counts[tt])
		}
	}
}

func TestAdaptiveRecoversFromStarvedRounds(t *testing.T) {
	// With a small population, heavy adaptive sampling starves the eligible
	// pool; after recycling the strategy must resume collecting rather than
	// deadlock at Dev=0 (regression: Eq. 9 must track collected rounds, not
	// the frozen model).
	g := testGrid()
	data := walkDataset(g, 400, 120, 30, 59)
	stream := trajectory.NewStream(data)
	opts := defaultOpts(allocation.Population)
	opts.W = 10
	e, _ := New(opts)
	lastRound := -1
	for tt := 0; tt < data.T; tt++ {
		res, _ := e.ProcessTimestamp(tt, stream.At(tt), stream.Active[tt])
		if res.Reported {
			lastRound = tt
		}
	}
	if lastRound < data.T-2*opts.W {
		t.Fatalf("collection stopped at t=%d of %d — adaptive strategy deadlocked", lastRound, data.T)
	}
	if e.Stats().Rounds < data.T/4 {
		t.Fatalf("only %d rounds over %d timestamps", e.Stats().Rounds, data.T)
	}
}

func TestBootstrapForcesFirstRound(t *testing.T) {
	// The adaptive strategy sees Dev=0 at t=0 and would stay silent; the
	// engine must bootstrap with 1/w resources (Alg. 1 line 2).
	g := testGrid()
	data := walkDataset(g, 200, 20, 8, 53)
	stream := trajectory.NewStream(data)
	e, _ := New(defaultOpts(allocation.Population))
	for tt := 0; tt < data.T; tt++ {
		res, _ := e.ProcessTimestamp(tt, stream.At(tt), stream.Active[tt])
		if len(stream.At(tt)) > 0 {
			if !res.Reported {
				t.Fatalf("first populated timestamp %d did not bootstrap", tt)
			}
			break
		}
	}
}
