package pipeline

import (
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

func testDomain() *transition.Domain {
	g := grid.MustNew(4, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	return transition.NewDomain(g)
}

func testReporters(dom *transition.Domain, n int, seed uint64) []trajectory.Event {
	g := dom.Space()
	rng := ldp.NewRand(seed, seed+1)
	events := make([]trajectory.Event, n)
	for i := range events {
		c := grid.Cell(rng.IntN(g.NumCells()))
		ns := g.Neighbors(c)
		events[i] = trajectory.Event{
			User:  i,
			State: transition.MoveState(c, ns[rng.IntN(len(ns))]),
		}
	}
	return events
}

func TestOUEPerUserCollectorShardingInvariance(t *testing.T) {
	dom := testDomain()
	reporters := testReporters(dom, 3000, 7)
	run := func(workers int) []float64 {
		c := &OUEPerUserCollector{Dom: dom, Rng: ldp.NewRand(11, 13), Workers: workers}
		ctx := &StepContext{
			T: 0, Epsilon: 1.0, Reporters: reporters, Timings: &Timings{},
		}
		c.Collect(ctx)
		if ctx.Aggregate.N() != len(reporters) {
			t.Fatalf("workers=%d: N=%d", workers, ctx.Aggregate.N())
		}
		if !(ctx.ErrUpd > 0) {
			t.Fatalf("workers=%d: ErrUpd=%v", workers, ctx.ErrUpd)
		}
		return ctx.Aggregate.EstimateAll()
	}
	seq := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("workers=%d: estimate[%d]=%v, want %v", workers, i, got[i], seq[i])
			}
		}
	}
}

// TestOUEPerUserCollectorPackedMatchesSparse pins the collector's packed
// perturb-and-fold against the reference route: the same seed through
// ldp.OUE.Perturb index lists, folded one report at a time by
// ldp.Aggregator.Add, must give the exact same estimates — at ε = 1 and at
// ε = 6, above the ε ≈ 4.1 size crossover, sequential and sharded.
func TestOUEPerUserCollectorPackedMatchesSparse(t *testing.T) {
	dom := testDomain()
	reporters := testReporters(dom, 3000, 21)
	for _, eps := range []float64{1, 6} {
		oracle := ldp.MustOUE(dom.Size(), eps)
		rng := ldp.NewRand(17, 19)
		ref := ldp.NewAggregator(oracle)
		for _, ev := range reporters {
			idx, _ := dom.Index(ev.State)
			ref.Add(oracle.Perturb(rng, idx))
		}
		want := ref.EstimateAll()
		for _, workers := range []int{1, 2, 8} {
			c := &OUEPerUserCollector{Dom: dom, Rng: ldp.NewRand(17, 19), Workers: workers}
			ctx := &StepContext{T: 0, Epsilon: eps, Reporters: reporters, Timings: &Timings{}}
			c.Collect(ctx)
			got := ctx.Aggregate.EstimateAll()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ε=%v workers=%d: packed estimate[%d]=%v, reference %v", eps, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDMUUpdaterBootstrapThenPartial(t *testing.T) {
	dom := testDomain()
	model := mobility.NewModel(dom)
	u := &DMUUpdater{Model: model}
	if u.Bootstrapped() {
		t.Fatal("fresh updater claims bootstrapped")
	}

	est := make([]float64, dom.Size())
	for i := range est {
		est[i] = 1 / float64(dom.Size())
	}
	ctx := &StepContext{Estimates: est, ErrUpd: 1e-6, Timings: &Timings{}}
	u.Update(ctx)
	if !u.Bootstrapped() {
		t.Fatal("first update did not bootstrap")
	}
	if ctx.Result.NumSignificant != dom.Size() {
		t.Fatalf("bootstrap NumSignificant=%d, want %d", ctx.Result.NumSignificant, dom.Size())
	}
	if ctx.SigRatio != 0 {
		t.Fatalf("bootstrap damped Eq. 10: SigRatio=%v", ctx.SigRatio)
	}

	// Second round with a tiny change and tiny error: DMU selects a subset.
	est2 := make([]float64, dom.Size())
	copy(est2, est)
	est2[0] += 0.5
	ctx2 := &StepContext{Estimates: est2, ErrUpd: 1e-6, Timings: &Timings{}}
	u.Update(ctx2)
	if ctx2.Result.NumSignificant == 0 || ctx2.Result.NumSignificant >= dom.Size() {
		t.Fatalf("DMU NumSignificant=%d, want partial selection", ctx2.Result.NumSignificant)
	}
	if model.Freq(0) != est2[0] {
		t.Fatalf("significant state not refreshed: %v", model.Freq(0))
	}
}

func TestDMUUpdaterAllUpdate(t *testing.T) {
	dom := testDomain()
	u := &DMUUpdater{Model: mobility.NewModel(dom), DisableDMU: true}
	est := make([]float64, dom.Size())
	ctx := &StepContext{Estimates: est, ErrUpd: 1e-6, Timings: &Timings{}}
	u.Update(ctx) // bootstrap
	ctx2 := &StepContext{Estimates: est, ErrUpd: 1e-6, Timings: &Timings{}}
	u.Update(ctx2)
	if ctx2.Result.NumSignificant != dom.Size() {
		t.Fatalf("AllUpdate NumSignificant=%d, want %d", ctx2.Result.NumSignificant, dom.Size())
	}
	if ctx2.SigRatio != 1 {
		t.Fatalf("AllUpdate SigRatio=%v, want 1", ctx2.SigRatio)
	}
}

func TestApportion(t *testing.T) {
	cases := []struct {
		total   int
		weights []int
		want    []int
	}{
		{10, []int{4, 6}, []int{4, 6}},          // total == Σw → exact
		{0, []int{3, 3}, []int{0, 0}},           // nothing to split
		{7, []int{0, 0, 0}, []int{3, 2, 2}},     // all-zero weights → even
		{5, []int{1, 1}, nil},                   // proportional, sums to 5
		{100, []int{1, 0, 3}, []int{25, 0, 75}}, // zero weight gets zero
	}
	for _, tc := range cases {
		got := apportion(tc.total, tc.weights)
		sum := 0
		for _, v := range got {
			sum += v
		}
		if sum != tc.total {
			t.Fatalf("apportion(%d, %v) = %v: sums to %d", tc.total, tc.weights, got, sum)
		}
		if tc.want != nil {
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("apportion(%d, %v) = %v, want %v", tc.total, tc.weights, got, tc.want)
				}
			}
		}
	}
}

func TestShardOfStableAndInRange(t *testing.T) {
	c, err := NewCoordinator(make([]Runner, 4))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for u := 0; u < 10000; u++ {
		s := c.ShardOf(u)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%d) = %d", u, s)
		}
		if s != c.ShardOf(u) {
			t.Fatalf("ShardOf(%d) unstable", u)
		}
		counts[s]++
	}
	// The splitmix fan-out should be roughly balanced.
	for s, n := range counts {
		if n < 2000 || n > 3000 {
			t.Fatalf("shard %d holds %d of 10000 users — unbalanced %v", s, n, counts)
		}
	}
}
