package retrasyn

// Ablation benches for consistency post-processing of the estimates (the
// paper uses raw estimates), plus a large-population synthesis bench.
// Utility ablations report the resulting query error / density error as
// custom benchmark metrics so a single `go test -bench=Ablation` run shows
// the utility-vs-cost trade-off.

import (
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/ldp"
	"retrasyn/internal/metrics"
	"retrasyn/internal/trajectory"
)

// ablationData builds one moderate dataset shared by the ablation benches.
func ablationData(b *testing.B) (*Dataset, *Grid) {
	b.Helper()
	raw, bounds, err := StandardDataset("tdrive", 0.15, 31)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGrid(6, bounds)
	if err != nil {
		b.Fatal(err)
	}
	return Discretize(raw, g), g
}

func runEngineAblation(b *testing.B, orig *Dataset, g *Grid, mutate func(*core.Options)) metrics.Report {
	b.Helper()
	opts := core.Options{Config: core.Config{
		Space:    g,
		Epsilon:  1.0,
		W:        20,
		Division: allocation.Population,
		Lambda:   orig.Stats().AvgLength,
		Seed:     17,
	}}
	mutate(&opts)
	e, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	syn, _ := e.Run(trajectory.NewStream(orig), "syn")
	return metrics.Evaluate(orig, syn, g, metrics.Options{Seed: 5})
}

// BenchmarkAblationPostProcess sweeps the consistency post-processing
// choices over the same run.
func BenchmarkAblationPostProcessNone(b *testing.B) { benchPostProcess(b, ldp.PostProcessNone) }

// BenchmarkAblationPostProcessClamp benchmarks clamping negatives.
func BenchmarkAblationPostProcessClamp(b *testing.B) { benchPostProcess(b, ldp.PostProcessClamp) }

// BenchmarkAblationPostProcessNormSub benchmarks the simplex projection.
func BenchmarkAblationPostProcessNormSub(b *testing.B) { benchPostProcess(b, ldp.PostProcessNormSub) }

func benchPostProcess(b *testing.B, pp ldp.PostProcess) {
	orig, g := ablationData(b)
	var r metrics.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = runEngineAblation(b, orig, g, func(o *core.Options) { o.PostProcess = pp })
	}
	b.ReportMetric(r.QueryError, "queryerr")
	b.ReportMetric(r.DensityError, "densityerr")
}

// BenchmarkSynthesisSerial measures synthesis on a large synthetic
// population (40k streams).
func BenchmarkSynthesisSerial(b *testing.B) {
	g, err := NewGrid(10, Bounds{MaxX: 30, MaxY: 30})
	if err != nil {
		b.Fatal(err)
	}
	const pop = 40000
	fw, err := New(Options{
		Grid: g, Epsilon: 1, Window: 10, Lambda: 20, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the engine with one timestamp of uniform events so the model and
	// the synthetic population exist.
	rng := ldp.NewRand(1, 2)
	events := make([]Event, pop)
	for i := range events {
		events[i] = Event{User: i, State: EnterState(Cell(rng.IntN(g.NumCells())))}
	}
	fw.ProcessTimestamp(events, pop)
	move := make([]Event, pop)
	for i := range move {
		c := Cell(rng.IntN(g.NumCells()))
		ns := g.Neighbors(c)
		move[i] = Event{User: i, State: MoveState(c, ns[rng.IntN(len(ns))])}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.ProcessTimestamp(move, pop)
	}
}
