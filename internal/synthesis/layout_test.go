package synthesis

import (
	"reflect"
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

// run returns a synthesizer stepped through timestamps [0, T) at a
// constant target, with quits on every step, and the snapshot it ran on.
func run(t testing.TB, target, T int) (*Synthesizer, *grid.System, *mobility.Snapshot) {
	t.Helper()
	g, dom := newSetup(4)
	s, err := New(g, Options{Lambda: 6}, ldp.NewRand(30, 31))
	if err != nil {
		t.Fatal(err)
	}
	snap := uniformSnapshot(dom, 0.3)
	s.Init(0, target, snap)
	for ts := 1; ts < T; ts++ {
		s.Step(ts, target, snap)
	}
	return s, g, snap
}

// stream returns n cells counting up from first, each a valid grid cell
// index of a 4×4 grid.
func stream(first, n int) []spatial.Cell {
	cells := make([]spatial.Cell, n)
	for i := range cells {
		cells[i] = spatial.Cell((first + i) % 16)
	}
	return cells
}

func cloneTrajs(trs []trajectory.CellTrajectory) []trajectory.CellTrajectory {
	out := make([]trajectory.CellTrajectory, len(trs))
	for i, tr := range trs {
		out[i] = trajectory.CellTrajectory{Start: tr.Start, Cells: append([]spatial.Cell(nil), tr.Cells...)}
	}
	return out
}

func TestDatasetOrderCompletedThenLive(t *testing.T) {
	g, dom := newSetup(4)
	s, _ := New(g, Options{Lambda: 1e9}, ldp.NewRand(32, 33))
	completed := []trajectory.CellTrajectory{
		{Start: 0, Cells: stream(0, 3)},
		{Start: 1, Cells: stream(5, 1)},
		{Start: 2, Cells: stream(9, 2)},
	}
	live := []trajectory.CellTrajectory{
		{Start: 3, Cells: stream(1, 2)},
		{Start: 4, Cells: stream(7, 1)},
	}
	s.Restore(State{Active: live, Completed: completed, Started: true, Now: 4})
	want := append(cloneTrajs(completed), cloneTrajs(live)...)
	if got := s.Dataset("x", 5).Trajs; !reflect.DeepEqual(got, want) {
		t.Fatalf("Dataset = %v, want completed then live %v", got, want)
	}
	// Shrinking to zero terminates every live stream; they complete in
	// release order, each without the point appended in the same Step.
	s.Step(5, 0, uniformSnapshot(dom, 0.3))
	if s.ActiveCount() != 0 {
		t.Fatalf("ActiveCount = %d after shrinking to 0", s.ActiveCount())
	}
	if got := s.Dataset("x", 6).Trajs; !reflect.DeepEqual(got, want) {
		t.Fatalf("Dataset after terminating all = %v, want %v", got, want)
	}
}

func TestHistoryChunkLayout(t *testing.T) {
	cases := []struct {
		name   string
		lens   []int
		chunks int
	}{
		// Fills the first chunk exactly; the next stream opens a second.
		{"boundary-exact", []int{chunkCells - 3, 3, 1}, 2},
		// One cell too many for the first chunk's free capacity.
		{"boundary-overflow", []int{chunkCells - 3, 4, 2}, 2},
		// Longer than a chunk: gets a chunk of its own length.
		{"oversized", []int{5, chunkCells + 7, 2}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := newSetup(4)
			s, _ := New(g, Options{Lambda: 5}, ldp.NewRand(34, 35))
			var completed []trajectory.CellTrajectory
			for i, n := range tc.lens {
				completed = append(completed, trajectory.CellTrajectory{Start: i, Cells: stream(i, n)})
			}
			live := []trajectory.CellTrajectory{{Start: 9, Cells: stream(3, 4)}}
			st := State{Active: live, Completed: completed, Started: true, Now: 12, StepCount: 12}
			s.Restore(st)
			if len(s.done.chunks) != tc.chunks {
				t.Fatalf("%d chunks, want %d", len(s.done.chunks), tc.chunks)
			}
			if got := s.State(); !reflect.DeepEqual(got, st) {
				t.Fatal("State after Restore differs from the restored State")
			}
			want := append(cloneTrajs(completed), cloneTrajs(live)...)
			if got := s.Dataset("x", 13).Trajs; !reflect.DeepEqual(got, want) {
				t.Fatal("Dataset differs from the restored streams")
			}
		})
	}
}

func TestStateRestoreStateDeepEqual(t *testing.T) {
	s, g, _ := run(t, 300, 40)
	s.Relayout(g, func(c spatial.Cell) spatial.Cell { return (c + 1) % spatial.Cell(g.NumCells()) })
	st := s.State()
	if len(st.Completed) == 0 || len(st.Active) != 300 {
		t.Fatalf("degenerate state: %d completed, %d active", len(st.Completed), len(st.Active))
	}
	fresh, _ := New(g, Options{Lambda: 6}, ldp.NewRand(1, 1))
	fresh.Restore(st)
	if got := fresh.State(); !reflect.DeepEqual(got, st) {
		t.Fatal("State → Restore → State is not the identity")
	}
}

func TestReleasesUnchangedByLaterSteps(t *testing.T) {
	s, g, snap := run(t, 300, 30)
	d := s.Dataset("x", 30)
	st := s.State()
	wantD, wantSt := cloneTrajs(d.Trajs), cloneTrajs(append(st.Completed, st.Active...))
	for ts := 30; ts < 60; ts++ {
		s.Step(ts, 250+ts%2*100, snap) // alternately shrink and grow
		if ts == 45 {
			s.Relayout(g, func(c spatial.Cell) spatial.Cell { return spatial.Cell(g.NumCells()) - 1 - c })
		}
	}
	if !reflect.DeepEqual(d.Trajs, wantD) {
		t.Fatal("a Dataset changed after later Steps and a Relayout")
	}
	if !reflect.DeepEqual(append(st.Completed, st.Active...), wantSt) {
		t.Fatal("a State changed after later Steps and a Relayout")
	}
}

// TestStepAllocations pins the flat layout's hot path: on a warmed
// synthesizer, Step — growing and shrinking rounds alike — allocates only
// for new history chunks and the occasional buffer outgrowing every reused
// one, well under once per round.
func TestStepAllocations(t *testing.T) {
	const target = 2000
	s, _, snap := run(t, target, 200)
	ts := 200
	allocs := testing.AllocsPerRun(200, func() {
		s.Step(ts, target-ts%2*50, snap)
		ts++
	})
	if allocs >= 1 {
		t.Fatalf("Step allocates %.2f times per round, want < 1", allocs)
	}
}

func BenchmarkSynthesizerStep(b *testing.B) {
	const target = 20000
	s, _, snap := run(b, target, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(300+i, target, snap)
	}
}
