package core

import (
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/grid"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// Failure-injection tests: degenerate grids, malformed event feeds and
// pathological streams must never corrupt the engine.

func TestEngineK1Grid(t *testing.T) {
	g := grid.MustNew(1, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	opts := Options{Config: Config{
		Space: g, Epsilon: 1, W: 3,
		Division: allocation.Population, Lambda: 4, Seed: 1,
	}}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.Domain().Size() != 3 { // self-move + enter + quit
		t.Fatalf("K=1 domain size = %d", e.Domain().Size())
	}
	d := &trajectory.Dataset{T: 10}
	for u := 0; u < 50; u++ {
		d.Trajs = append(d.Trajs, trajectory.CellTrajectory{
			Start: u % 5, Cells: []grid.Cell{0, 0, 0}})
	}
	stream := trajectory.NewStream(d)
	syn, stats := e.Run(stream, "syn")
	if stats.Rounds == 0 {
		t.Fatal("no rounds on K=1 grid")
	}
	if err := syn.Validate(g, true); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSkipsUnreachableMoves(t *testing.T) {
	// A corrupted feed reporting non-adjacent moves: such events carry no
	// valid transition state and must be dropped, not crash the engine.
	g := testGrid() // K=4
	e, _ := New(defaultOpts(allocation.Population))
	events := []trajectory.Event{
		{User: 1, State: transition.MoveState(g.CellAt(0, 0), g.CellAt(3, 3))}, // unreachable
		{User: 2, State: transition.MoveState(g.CellAt(0, 0), g.CellAt(0, 1))}, // fine
		{User: 3, State: transition.EnterState(g.CellAt(2, 2))},                // fine
	}
	res, _ := e.ProcessTimestamp(0, events, 3)
	if !res.Reported {
		t.Fatal("valid events not collected")
	}
	if res.NumReporters > 2 {
		t.Fatalf("unreachable move was collected: %d reporters", res.NumReporters)
	}
}

func TestEngineInvalidCellEvents(t *testing.T) {
	e, _ := New(defaultOpts(allocation.Population))
	events := []trajectory.Event{
		{User: 1, State: transition.MoveState(grid.Invalid, 0)},
		{User: 2, State: transition.EnterState(grid.Cell(9999))},
		{User: 3, State: transition.State{Kind: transition.Kind(7)}},
	}
	res, _ := e.ProcessTimestamp(0, events, 0)
	if res.Reported {
		t.Fatal("garbage events produced a collection round")
	}
}

func TestEngineNonMonotoneTimestampErrors(t *testing.T) {
	e, _ := New(defaultOpts(allocation.Population))
	if _, err := e.ProcessTimestamp(0, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProcessTimestamp(1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProcessTimestamp(1, nil, 0); err == nil {
		t.Fatal("repeated timestamp did not error")
	}
	if _, err := e.ProcessTimestamp(0, nil, 0); err == nil {
		t.Fatal("past timestamp did not error")
	}
	// The rejected timestamps must not corrupt the stream position: the
	// next in-order timestamp still processes.
	if _, err := e.ProcessTimestamp(2, nil, 0); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Timestamps != 3 {
		t.Fatalf("timestamps = %d, want 3", e.Stats().Timestamps)
	}
}

func TestEngineTimestampGapsAllowed(t *testing.T) {
	// Gaps (e.g. the feed skips empty timestamps) are fine as long as
	// timestamps increase.
	e, _ := New(defaultOpts(allocation.Population))
	e.ProcessTimestamp(0, nil, 0)
	e.ProcessTimestamp(5, nil, 0)
	e.ProcessTimestamp(100, nil, 0)
	if e.Stats().Timestamps != 3 {
		t.Fatalf("timestamps = %d", e.Stats().Timestamps)
	}
}

func TestEngineQuitForUnknownUser(t *testing.T) {
	// A quit event for a user the tracker never saw (e.g. the user entered
	// before the engine started) must register and retire the user cleanly.
	g := testGrid()
	e, _ := New(defaultOpts(allocation.Population))
	events := []trajectory.Event{
		{User: 42, State: transition.QuitState(g.CellAt(1, 1))},
	}
	e.ProcessTimestamp(0, events, 0)
	// The user must not be sampleable afterwards.
	events2 := []trajectory.Event{
		{User: 42, State: transition.MoveState(g.CellAt(1, 1), g.CellAt(1, 2))},
	}
	res, _ := e.ProcessTimestamp(1, events2, 1)
	if res.NumReporters > 0 {
		t.Fatal("quitted user was sampled again")
	}
}

func TestEngineSingleUser(t *testing.T) {
	g := testGrid()
	d := &trajectory.Dataset{T: 30}
	cells := make([]grid.Cell, 30)
	c := g.CellAt(1, 1)
	for i := range cells {
		cells[i] = c
	}
	d.Trajs = []trajectory.CellTrajectory{{Start: 0, Cells: cells}}
	e, _ := New(defaultOpts(allocation.Population))
	syn, _ := e.Run(trajectory.NewStream(d), "syn")
	if err := syn.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	// Size adjustment tracks the single user.
	counts := syn.ActiveCounts()
	for ts := 0; ts < 30; ts++ {
		if counts[ts] != 1 {
			t.Fatalf("t=%d: active %d, want 1", ts, counts[ts])
		}
	}
}

func TestEngineHugeChurn(t *testing.T) {
	// Every user lives exactly one timestamp: only enter and quit states
	// ever exist; movement frequencies stay empty and synthesis must still
	// produce a valid (enter-heavy) release.
	g := testGrid()
	d := &trajectory.Dataset{T: 20}
	id := 0
	for ts := 0; ts < 20; ts++ {
		for i := 0; i < 30; i++ {
			d.Trajs = append(d.Trajs, trajectory.CellTrajectory{
				Start: ts, Cells: []grid.Cell{grid.Cell(id % g.NumCells())}})
			id++
		}
	}
	e, _ := New(defaultOpts(allocation.Population))
	syn, _ := e.Run(trajectory.NewStream(d), "syn")
	if err := syn.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	counts := syn.ActiveCounts()
	for ts, want := range d.ActiveCounts() {
		if counts[ts] != want {
			t.Fatalf("t=%d: active %d, want %d", ts, counts[ts], want)
		}
	}
}

func TestEngineBudgetDivisionZeroActive(t *testing.T) {
	// Budget division with an entirely silent stream must simply record
	// zero expenditure and never report.
	e, _ := New(defaultOpts(allocation.Budget))
	for ts := 0; ts < 50; ts++ {
		if res, _ := e.ProcessTimestamp(ts, nil, 0); res.Reported {
			t.Fatal("report on empty timestamp")
		}
	}
}
