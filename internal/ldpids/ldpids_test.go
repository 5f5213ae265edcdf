package ldpids

import (
	"slices"
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

func testGrid() *grid.System {
	return grid.MustNew(4, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
}

func walkDataset(g *grid.System, users, T int, meanLen float64, seed uint64) *trajectory.Dataset {
	rng := ldp.NewRand(seed, seed+1)
	d := &trajectory.Dataset{Name: "walk", T: T}
	for u := 0; u < users; u++ {
		start := rng.IntN(T)
		c := grid.Cell(rng.IntN(g.NumCells()))
		cells := []grid.Cell{c}
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

func opts(m Method) Options {
	return Options{Grid: testGrid(), Epsilon: 1.0, W: 5, Method: m, Seed: 9}
}

func TestMethodString(t *testing.T) {
	tests := []struct {
		m    Method
		want string
	}{
		{LBD, "LBD"}, {LBA, "LBA"}, {LPD, "LPD"}, {LPA, "LPA"}, {Method(9), "Method(9)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
	if LBD.IsPopulation() || LBA.IsPopulation() {
		t.Error("budget methods flagged as population")
	}
	if !LPD.IsPopulation() || !LPA.IsPopulation() {
		t.Error("population methods not flagged")
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Options{
		{Grid: nil, Epsilon: 1, W: 5},
		{Grid: testGrid(), Epsilon: 0, W: 5},
		{Grid: testGrid(), Epsilon: 1, W: 0},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestRunAllMethods(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 300, 50, 10, 3)
	stream := trajectory.NewStream(data)
	for _, m := range []Method{LBD, LBA, LPD, LPA} {
		t.Run(m.String(), func(t *testing.T) {
			e, err := New(opts(m))
			if err != nil {
				t.Fatal(err)
			}
			syn, stats := e.Run(stream, "syn")
			if err := syn.Validate(g, true); err != nil {
				t.Fatalf("invalid synthetic output: %v", err)
			}
			if stats.Publications == 0 {
				t.Fatal("no publications happened")
			}
			if stats.Timestamps != data.T {
				t.Fatalf("processed %d timestamps", stats.Timestamps)
			}
		})
	}
}

func TestBaselineStreamsNeverTerminate(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 200, 40, 10, 5)
	stream := trajectory.NewStream(data)
	e, _ := New(opts(LBD))
	syn, _ := e.Run(stream, "syn")
	if len(syn.Trajs) == 0 {
		t.Fatal("no synthetic streams")
	}
	for _, tr := range syn.Trajs {
		if tr.End() != data.T-1 {
			t.Fatalf("baseline stream ends at %d, want %d (never terminates)", tr.End(), data.T-1)
		}
	}
	// Constant size: all streams share the initialization timestamp.
	start := syn.Trajs[0].Start
	for _, tr := range syn.Trajs {
		if tr.Start != start {
			t.Fatal("baseline population not constant-size")
		}
	}
}

func TestBudgetMethodsWindowInvariant(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 250, 60, 10, 7)
	stream := trajectory.NewStream(data)
	for _, m := range []Method{LBD, LBA} {
		t.Run(m.String(), func(t *testing.T) {
			o := opts(m)
			e, _ := New(o)
			e.Run(stream, "syn")
			if got := e.Ledger().MaxWindowSum(o.W); got > o.Epsilon+1e-9 {
				t.Fatalf("window budget %v exceeds ε=%v", got, o.Epsilon)
			}
		})
	}
}

func TestPopulationMethodsUserInvariant(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 250, 60, 10, 11)
	stream := trajectory.NewStream(data)
	for _, m := range []Method{LPD, LPA} {
		t.Run(m.String(), func(t *testing.T) {
			o := opts(m)
			e, _ := New(o)
			e.Run(stream, "syn")
			got := e.Ledger().MaxUserWindowSum(o.W, func(int) float64 { return o.Epsilon })
			if got > o.Epsilon+1e-9 {
				t.Fatalf("per-user window budget %v exceeds ε=%v", got, o.Epsilon)
			}
		})
	}
}

// TestPopulationRosterAdmitsEnterAndQuit: users whose only event is an
// enter or a quit — no movement state, so never eligible — are still
// registered on the roster, ahead of the domain filter. The user who sent
// its quit at round 0 is quitted when it is absent, at round 1.
func TestPopulationRosterAdmitsEnterAndQuit(t *testing.T) {
	e, err := New(opts(LPD))
	if err != nil {
		t.Fatal(err)
	}
	events := []trajectory.Event{
		{User: 1, State: transition.EnterState(0)},
		{User: 2, State: transition.MoveState(0, 1)},
		{User: 3, State: transition.QuitState(5)},
	}
	e.EnableLedger(2)
	e.ProcessTimestamp(0, events, 2)
	st := e.users.State()
	for _, id := range []int{1, 2, 3} {
		if _, ok := st.Status[id]; !ok {
			t.Fatalf("user %d not registered", id)
		}
	}
	if st.Active != 2 { // 2 reported
		t.Fatalf("active = %d, want 2", st.Active)
	}
	e.ProcessTimestamp(1, events[:2], 2)
	if st = e.users.State(); len(st.Quits) < 2 || !slices.Equal(st.Quits[1], []int{3}) {
		t.Fatalf("quit ring %v, want user 3 quitted at round 1", st.Quits)
	}
}

// TestPopulationRosterSilentDeparture: users who stop sending events, with
// no quit event, are quitted at their first absent round and forgotten w
// rounds later: the roster holds no more than the present users plus w+1
// rounds of leavers.
func TestPopulationRosterSilentDeparture(t *testing.T) {
	const rounds, present, churn = 200, 60, 5
	o := opts(LPD)
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableLedger(rounds)
	var live []int
	var events []trajectory.Event
	for ts, next := 0, 0; ts < rounds; ts++ {
		if len(live) >= present {
			live = live[churn:] // the oldest users vanish, sending nothing
		}
		events = events[:0]
		for _, id := range live {
			events = append(events, trajectory.Event{User: id, State: transition.MoveState(0, 1)})
		}
		for range churn {
			events = append(events, trajectory.Event{User: next, State: transition.EnterState(0)})
			live = append(live, next)
			next++
		}
		e.ProcessTimestamp(ts, events, len(events))
		if held, bound := len(e.users.State().Status), len(events)+(o.W+1)*churn; held > bound {
			t.Fatalf("t=%d: roster holds %d users, bound %d", ts, held, bound)
		}
	}
}

func TestLBANullification(t *testing.T) {
	// After a publication that absorbed k quanta, the next k−1 timestamps
	// must not publish. Detect by counting publications in a steady stream.
	g := testGrid()
	data := walkDataset(g, 300, 60, 20, 13)
	stream := trajectory.NewStream(data)
	o := opts(LBA)
	e, _ := New(o)
	_, stats := e.Run(stream, "syn")
	// With w=5, dissim ε/(2w) each ts, publications bounded by the quanta:
	// at most one publication per timestamp and total pub budget per window
	// ≤ ε/2, so publications cannot exceed timestamps.
	if stats.Publications > stats.Timestamps {
		t.Fatalf("publications %d exceed timestamps %d", stats.Publications, stats.Timestamps)
	}
	if got := e.Ledger().MaxWindowSum(o.W); got > o.Epsilon+1e-9 {
		t.Fatalf("LBA window budget %v exceeds ε", got)
	}
}

func TestDissimilarityUnbiasedClamp(t *testing.T) {
	e, _ := New(opts(LBD))
	est := make([]float64, e.dom.Size())
	// Model is all zeros; estimate all zeros; variance correction pushes the
	// raw value negative → clamped to 0.
	if got := e.dissimilarity(est, 0.5); got != 0 {
		t.Fatalf("dissimilarity = %v, want 0", got)
	}
	// Large genuine drift dominates the correction.
	for i := range est {
		est[i] = 1
	}
	if got := e.dissimilarity(est, 0.5); got <= 0 {
		t.Fatalf("dissimilarity = %v, want > 0", got)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 150, 30, 8, 17)
	stream := trajectory.NewStream(data)
	run := func() Stats {
		e, _ := New(opts(LPA))
		_, stats := e.Run(stream, "syn")
		return stats
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestEmptyStream(t *testing.T) {
	d := &trajectory.Dataset{Name: "empty", T: 10}
	stream := trajectory.NewStream(d)
	for _, m := range []Method{LBD, LBA, LPD, LPA} {
		e, _ := New(opts(m))
		syn, stats := e.Run(stream, "syn")
		if len(syn.Trajs) != 0 || stats.Publications != 0 {
			t.Fatalf("%v: empty stream produced output: %d trajs, %d pubs",
				m, len(syn.Trajs), stats.Publications)
		}
	}
}
