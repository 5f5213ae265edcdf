package retrasyn

// The benchmark harness: one bench per table and figure of the paper's
// evaluation (regenerated through internal/experiments at a reduced scale so
// `go test -bench=.` completes in minutes), plus micro-benchmarks of the
// hot components. For full-scale artifacts run:
//
//	go run ./cmd/experiments -exp all -scale 1.0
import (
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/dmu"
	"retrasyn/internal/experiments"
	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
)

// benchParams is the reduced-scale configuration for the table/figure
// benches.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Scale = 0.08
	p.W = 10
	p.BestOf = false
	p.Seed = 99
	return p
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchParams())
		if _, err := env.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Overall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchParams())
		if _, err := env.Table3([]float64{1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchParams())
		if _, err := env.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Components(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchParams())
		if _, err := env.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Allocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchParams())
		if _, err := env.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4WindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchParams())
		if _, err := env.Fig4([]int{10, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5TimeRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchParams())
		if _, err := env.Fig5([]int{5, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchParams())
		if _, err := env.Fig6([]int{2, 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnv(benchParams())
		if _, err := env.Fig7([]float64{0.5, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------ components

// BenchmarkOUEPerturb measures one faithful client-side report over the
// K=6 transition domain (|S| = 328).
func BenchmarkOUEPerturb(b *testing.B) {
	oracle := ldp.MustOUE(328, 1.0)
	rng := ldp.NewRand(1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oracle.Perturb(rng, i%328)
	}
}

// BenchmarkAggregateOracle measures one curator-side collection round over
// 1000 users (the aggregate simulation path).
func BenchmarkAggregateOracle(b *testing.B) {
	oracle := ldp.MustOUE(328, 1.0)
	ao := ldp.NewAggregateOracle(oracle)
	rng := ldp.NewRand(3, 4)
	counts := make([]int, 328)
	for i := 0; i < 1000; i++ {
		counts[i%328]++
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ao.Collect(rng, counts)
	}
}

// BenchmarkDMUSelect measures one significant-transition selection over the
// K=6 domain.
func BenchmarkDMUSelect(b *testing.B) {
	rng := ldp.NewRand(5, 6)
	current := make([]float64, 328)
	estimated := make([]float64, 328)
	for i := range current {
		current[i] = rng.Float64() * 0.01
		estimated[i] = current[i] + (rng.Float64()-0.5)*0.01
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dmu.Select(current, estimated, 1.0, 500)
	}
}

// BenchmarkEngineTimestamp measures one full ProcessTimestamp of the
// population-division engine with ~600 present users.
func BenchmarkEngineTimestamp(b *testing.B) {
	g := grid.MustNew(6, grid.Bounds{MaxX: 30, MaxY: 30})
	rng := ldp.NewRand(7, 8)
	events := make([]trajectory.Event, 600)
	for i := range events {
		c := grid.Cell(rng.IntN(g.NumCells()))
		ns := g.Neighbors(c)
		events[i] = trajectory.Event{User: i, State: MoveState(c, ns[rng.IntN(len(ns))])}
	}
	engine, err := core.New(core.Options{Config: core.Config{
		Space: g, Epsilon: 1.0, W: 10,
		Division: allocation.Population,
		Lambda:   13.6, Seed: 11,
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.ProcessTimestamp(i, events, 600)
	}
}

// BenchmarkSynthesisStep measures the per-timestamp generation cost for a
// 5000-stream synthetic population (the dominant cost in Table V).
func BenchmarkSynthesisStep(b *testing.B) {
	raw, bounds, err := StandardDataset("tdrive", 0.1, 5)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := NewGrid(6, bounds)
	orig := Discretize(raw, g)
	fw, err := New(Options{Grid: g, Epsilon: 1, Window: 10, Lambda: 13.6, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	events, active := NewStreamEvents(orig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := i % orig.T
		if ts == 0 && i > 0 {
			b.StopTimer()
			fw, _ = New(Options{Grid: g, Epsilon: 1, Window: 10, Lambda: 13.6, Seed: 3})
			b.StartTimer()
		}
		fw.ProcessTimestamp(events[ts], active[ts])
	}
}

// BenchmarkEvaluate measures the full eight-metric evaluation.
func BenchmarkEvaluate(b *testing.B) {
	raw, bounds, err := StandardDataset("tdrive", 0.1, 5)
	if err != nil {
		b.Fatal(err)
	}
	g, _ := NewGrid(6, bounds)
	orig := Discretize(raw, g)
	fw, _ := New(Options{Grid: g, Epsilon: 1, Window: 10, Lambda: 13.6, Seed: 3})
	syn, _, err := fw.Run(orig)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateUtility(orig, syn, g, UtilityOptions{Seed: uint64(i)})
	}
}
