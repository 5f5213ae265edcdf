package core

import (
	"fmt"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/grid"
	"retrasyn/internal/obs"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

// observedEngine boots an aggregate-oracle engine on space with n live
// synthetic streams and a monitor whose window-timestamp release sketch is
// full, then returns a step that runs one steady-state AdaptLayout round: the
// engine stands still (its last reported round is re-stamped to the new
// timestamp, so the monitor computes a divergence every round) while the
// observation path does a full round's work — sketch n positions, retire the
// oldest timestamp, fold the newest, compare.
func observedEngine(tb testing.TB, space spatial.Discretizer, n, window int, reg *obs.Registry) (step func() LayoutChange) {
	tb.Helper()
	opts := defaultOpts(allocation.Budget)
	opts.Space = space
	opts.OracleMode = Aggregate
	opts.Metrics = reg
	e, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	_, mon, err := NewLayoutControl(space, nil, window, reg)
	if err != nil {
		tb.Fatal(err)
	}
	engines := []*Engine{e}
	warm := window + 2
	stream := trajectory.NewStream(walkDataset(space, 400, warm, 50, 7))
	t := 0
	for ; t < warm; t++ {
		if _, err := e.ProcessTimestamp(t, stream.At(t), n); err != nil {
			tb.Fatal(err)
		}
		if _, err := AdaptLayout(engines, nil, mon, t, 0); err != nil {
			tb.Fatal(err)
		}
	}
	if got := e.synth.ActiveCount(); got != n {
		tb.Fatalf("engine holds %d live streams, want %d", got, n)
	}
	return func() LayoutChange {
		e.lastRoundT = t
		ch, err := AdaptLayout(engines, nil, mon, t, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if !ch.Monitor.Computed {
			tb.Fatalf("t=%d: monitor computed no divergence", t)
		}
		t++
		return ch
	}
}

// BenchmarkAdaptLayout measures one post-round observation (ns/op is
// ns/round) over live streams × monitor window × layout.
func BenchmarkAdaptLayout(b *testing.B) {
	for _, layout := range []string{"grid", "quadtree"} {
		for _, n := range []int{5_000, 50_000} {
			for _, window := range []int{5, 20} {
				b.Run(fmt.Sprintf("%s/N=%d/W=%d", layout, n, window), func(b *testing.B) {
					var space spatial.Discretizer = grid.MustNew(8, grid.Bounds{MaxX: 1, MaxY: 1})
					if layout == "quadtree" {
						space = testQuadtree(b)
					}
					step := observedEngine(b, space, n, window, nil)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						step()
					}
				})
			}
		}
	}
}

// TestAdaptLayoutAllocsIndependentOfScale pins that a steady-state
// monitor-only observation round allocates a small constant number of objects
// (the monitor's per-cell vectors), not buffers that scale with the live
// streams or the sketch window.
func TestAdaptLayoutAllocsIndependentOfScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	allocs := func(n, window int) float64 {
		step := observedEngine(t, testGrid(), n, window, nil)
		for i := 0; i < 2*window; i++ { // every ring slot has its final capacity
			step()
		}
		return testing.AllocsPerRun(50, func() { step() })
	}
	small, large := allocs(500, 3), allocs(20_000, 20)
	if small != large {
		t.Fatalf("observation allocations grow with scale: %v objects at N=500 W=3, %v at N=20000 W=20", small, large)
	}
	if small > 10 {
		t.Fatalf("steady-state observation round allocates %v objects, want ≤ 10", small)
	}
}

// TestAdaptLayoutReportsObserveTime checks the observation's wall time lands
// in LayoutChange.Observe and in the relayout.observe_duration_us histogram of
// the registry the engine and the observers share — and that a call with
// neither observer does nothing at all.
func TestAdaptLayoutReportsObserveTime(t *testing.T) {
	reg := obs.NewRegistry()
	step := observedEngine(t, testGrid(), 300, 4, reg)
	h := reg.Histogram("relayout.observe_duration_us")
	before := h.Count()
	if before == 0 {
		t.Fatal("warm-up rounds recorded no observation time")
	}
	if ch := step(); ch.Observe <= 0 {
		t.Fatalf("LayoutChange.Observe = %v, want > 0", ch.Observe)
	}
	if got := h.Count(); got != before+1 {
		t.Fatalf("histogram count %d after one more round, want %d", got, before+1)
	}

	e, err := New(defaultOpts(allocation.Budget))
	if err != nil {
		t.Fatal(err)
	}
	if ch, err := AdaptLayout([]*Engine{e}, nil, nil, 0, 0); err != nil || ch.Observe != 0 {
		t.Fatalf("AdaptLayout without observers: %+v, %v", ch, err)
	}
	if e.posBuf != nil || e.cellBuf != nil {
		t.Fatal("AdaptLayout without observers sketched the release")
	}
}
