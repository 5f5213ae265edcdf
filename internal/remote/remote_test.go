package remote

import (
	"net/http/httptest"
	"strings"
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

func testConfig(g spatial.Discretizer) CuratorConfig {
	return CuratorConfig{
		Space: g, Epsilon: 1.0, W: 5,
		Division: allocation.Population, Lambda: 6, Seed: 11,
	}
}

// assignmentFor polls one user's assignment, as a device client does.
func assignmentFor(cur *Curator, user, ts int) (Assignment, error) {
	as, err := cur.AssignmentsFor([]int{user}, ts)
	if err != nil {
		return Assignment{}, err
	}
	return as[0], nil
}

// buildClients creates device clients holding random-walk trajectories
// over any spatial discretization.
func buildClients(t *testing.T, g spatial.Discretizer, cur *Curator, baseURL string, n, T int) ([]*Client, *trajectory.Dataset) {
	t.Helper()
	rng := ldp.NewRand(3, 5)
	d := &trajectory.Dataset{Name: "remote", T: T}
	clients := make([]*Client, n)
	for u := 0; u < n; u++ {
		start := rng.IntN(T / 2)
		c := grid.Cell(rng.IntN(g.NumCells()))
		cells := []grid.Cell{c}
		for ts := start + 1; ts < T; ts++ {
			if rng.Float64() < 0.1 {
				break
			}
			ns := g.Neighbors(c)
			c = ns[rng.IntN(len(ns))]
			cells = append(cells, c)
		}
		tr := trajectory.CellTrajectory{Start: start, Cells: cells}
		d.Trajs = append(d.Trajs, tr)
		clients[u] = NewClient(baseURL, nil, u, tr, cur.Domain(), uint64(u)+100)
	}
	return clients, d
}

func TestEndToEndOverHTTP(t *testing.T) {
	g := testGrid()
	cur, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	const T = 25
	cur.EnableLedger(T)
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()

	clients, orig := buildClients(t, g, cur, srv.URL, 120, T)
	co := NewCoordinator(srv.URL, nil)

	for ts := 0; ts < T; ts++ {
		active := 0
		for _, c := range clients {
			if err := c.AnnouncePresence(ts); err != nil {
				t.Fatalf("t=%d presence: %v", ts, err)
			}
			if c.LocatedAt(ts) {
				active++
			}
		}
		if err := co.Plan(ts); err != nil {
			t.Fatalf("t=%d plan: %v", ts, err)
		}
		for _, c := range clients {
			if _, err := c.MaybeReport(ts); err != nil {
				t.Fatalf("t=%d report: %v", ts, err)
			}
		}
		if err := co.Finalize(ts, active); err != nil {
			t.Fatalf("t=%d finalize: %v", ts, err)
		}
	}

	rounds, reports := cur.Stats()
	if rounds == 0 || reports == 0 {
		t.Fatalf("no activity: rounds=%d reports=%d", rounds, reports)
	}
	syn := cur.Synthetic("remote")
	if err := syn.Validate(g, true); err != nil {
		t.Fatalf("invalid release: %v", err)
	}
	// Size mirroring holds over the wire too.
	synActive := syn.ActiveCounts()
	for ts, want := range orig.ActiveCounts() {
		if synActive[ts] != want {
			t.Fatalf("t=%d: synthetic active %d, real %d", ts, synActive[ts], want)
		}
	}
	// w-event invariant: no user reported twice in any window.
	got := cur.Ledger().MaxUserWindowSum(5, func(int) float64 { return 1.0 })
	if got > 1.0+1e-9 {
		t.Fatalf("per-user window budget %v exceeds ε", got)
	}
	// The release is served over HTTP as CSV.
	body, err := co.Synthetic()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), "T,25") {
		t.Fatalf("unexpected CSV header: %q", string(body[:20]))
	}
}

func TestCuratorConfigValidation(t *testing.T) {
	g := testGrid()
	bad := []CuratorConfig{
		{Epsilon: 1, W: 5, Lambda: 5},
		{Space: g, W: 5, Lambda: 5},
		{Space: g, Epsilon: 1, Lambda: 5},
		{Space: g, Epsilon: 1, W: 5},
	}
	for i, cfg := range bad {
		if _, err := NewCurator(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestProtocolStateMachine(t *testing.T) {
	g := testGrid()
	cur, _ := NewCurator(testConfig(g))
	// Finalize before Plan.
	if err := cur.Finalize(0, 10); err == nil {
		t.Fatal("Finalize without Plan accepted")
	}
	if err := cur.Plan(0); err != nil {
		t.Fatal(err)
	}
	// Double Plan.
	if err := cur.Plan(1); err == nil {
		t.Fatal("Plan during open round accepted")
	}
	if err := cur.Finalize(0, 0); err != nil {
		t.Fatal(err)
	}
	// Plan for a past timestamp.
	if err := cur.Plan(0); err == nil {
		t.Fatal("Plan for closed timestamp accepted")
	}
	// Presence for a closed timestamp.
	if err := cur.PresenceBatch([]int{1}, 0); err == nil {
		t.Fatal("stale presence accepted")
	}
}

func TestReportValidation(t *testing.T) {
	g := testGrid()
	cur, _ := NewCurator(testConfig(g))
	cur.PresenceBatch([]int{7}, 0)
	if err := cur.Plan(0); err != nil {
		t.Fatal(err)
	}
	// Unsampled user (bootstrap samples 1/w of 1 user → that one user).
	if err := cur.ReportBatch(0, []BatchReport{{User: 99, Ones: []int{1}}}); err == nil {
		t.Fatal("unsampled user's report accepted")
	}
	a, _ := assignmentFor(cur, 7, 0)
	if a.Report {
		// Out-of-domain bit.
		if err := cur.ReportBatch(0, []BatchReport{{User: 7, Ones: []int{cur.Domain().Size()}}}); err == nil {
			t.Fatal("out-of-domain bit accepted")
		}
		// Valid report, then a duplicate.
		if err := cur.ReportBatch(0, []BatchReport{{User: 7, Ones: []int{1, 2}}}); err != nil {
			t.Fatal(err)
		}
		if err := cur.ReportBatch(0, []BatchReport{{User: 7, Ones: []int{1}}}); err == nil {
			t.Fatal("duplicate report accepted")
		}
	}
}

func TestClientStateAt(t *testing.T) {
	g := testGrid()
	cur, _ := NewCurator(testConfig(g))
	tr := trajectory.CellTrajectory{Start: 3, Cells: []grid.Cell{0, 1, 5}}
	c := NewClient("http://unused", nil, 1, tr, cur.Domain(), 9)

	if _, ok := c.StateAt(2); ok {
		t.Fatal("state before start")
	}
	s, ok := c.StateAt(3)
	if !ok || s.Kind.String() != "enter" {
		t.Fatalf("t=3 state = %v", s)
	}
	s, _ = c.StateAt(4)
	if s.From != 0 || s.To != 1 {
		t.Fatalf("t=4 move = %v", s)
	}
	s, ok = c.StateAt(6) // End()+1 = graceful quit
	if !ok || s.Kind.String() != "quit" || s.From != 5 {
		t.Fatalf("t=6 state = %v", s)
	}
	if _, ok := c.StateAt(7); ok {
		t.Fatal("state after quit")
	}
	if !c.LocatedAt(5) || c.LocatedAt(6) {
		t.Fatal("LocatedAt mismatch")
	}
}

// TestQuitInference: a device present at t_q−1 and silent at t_q is
// inferred to have quit at t_q. A confused device that keeps reappearing is
// not sampleable for rounds t_q+1 … t_q+w−1; from t_q+w on it is forgotten
// and re-admitted as a new arrival — its last report lies before t_q,
// outside every window that contains the re-admission round.
func TestQuitInference(t *testing.T) {
	g := testGrid()
	cfg := testConfig(g)
	cur, _ := NewCurator(cfg)
	cur.PresenceBatch([]int{1}, 0)
	cur.Plan(0)
	cur.Finalize(0, 1)
	const tq = 1
	cur.Plan(tq)
	cur.Finalize(tq, 0)
	for ts := tq + 1; ts <= tq+cfg.W; ts++ {
		cur.PresenceBatch([]int{1}, ts) // a confused device reappears
		if err := cur.Plan(ts); err != nil {
			t.Fatal(err)
		}
		round, _ := cur.eng.Open()
		a, _ := assignmentFor(cur, 1, ts)
		if readmitted := ts >= tq+cfg.W; readmitted {
			if round.Pool != 1 || !a.Report {
				t.Fatalf("t=%d: pool %d, sampled %v — want the forgotten user re-admitted and sampled", ts, round.Pool, a.Report)
			}
		} else if round.Pool != 0 || a.Report {
			t.Fatalf("quitted user pooled (%d) or sampled (%v) at t=%d", round.Pool, a.Report, ts)
		}
		if err := cur.Finalize(ts, 1); err != nil {
			t.Fatal(err)
		}
	}
}
