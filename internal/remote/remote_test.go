package remote

import (
	"bytes"
	"fmt"
	"net/http"
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

// TestPresenceRefusedWhileRoundOpen: the presence set belongs to the round
// Plan opens from it, so announcing for the next timestamp while a round is
// open is refused and counts nothing; once the round closes, the same
// announcement lands in the next round's pool.
func TestPresenceRefusedWhileRoundOpen(t *testing.T) {
	cur, _ := NewCurator(testConfig(testGrid()))
	if err := cur.PresenceBatch([]int{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cur.Plan(0); err != nil {
		t.Fatal(err)
	}
	if err := cur.PresenceBatch([]int{1, 2, 3}, 1); err == nil {
		t.Fatal("presence for t=1 accepted while round 0 is open")
	}
	if n := cur.PresenceEvents(); n != 2 {
		t.Fatalf("refused presence counted: %d events, want 2", n)
	}
	if err := cur.Finalize(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := cur.PresenceBatch([]int{3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if err := cur.Plan(1); err != nil {
		t.Fatal(err)
	}
	if round, _ := cur.eng.Open(); round.Pool != 2 {
		t.Fatalf("round 1 pool %d, want the 2 users announced for it", round.Pool)
	}
}

// TestPresenceForAnotherTimestampRefused: a presence set collected for t=7
// takes no announcement for another timestamp, and Plan for another
// timestamp refuses it without touching state. The set's timestamp survives
// a snapshot; a snapshot that does not record it restores unpinned.
func TestPresenceForAnotherTimestampRefused(t *testing.T) {
	cur, _ := NewCurator(testConfig(testGrid()))
	if err := cur.PresenceBatch([]int{5}, 7); err != nil {
		t.Fatal(err)
	}
	if err := cur.PresenceBatch([]int{6}, 8); err == nil {
		t.Fatal("presence for t=8 accepted into the set collected for t=7")
	}
	if err := cur.Plan(0); err == nil {
		t.Fatal("Plan(0) accepted the presence set collected for t=7")
	}
	if _, open := cur.eng.Open(); open || cur.eng.LastT() != -1 || len(cur.present) != 1 {
		t.Fatalf("refused Plan changed state: open %v, last t %d, %d present", open, cur.eng.LastT(), len(cur.present))
	}

	st, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.PresentT == nil || *st.PresentT != 7 {
		t.Fatalf("snapshot present_t = %v, want 7", st.PresentT)
	}
	restored, _ := NewCurator(testConfig(testGrid()))
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	if err := restored.PresenceBatch([]int{6}, 8); err == nil {
		t.Fatal("restored curator accepted presence for t=8 into the set collected for t=7")
	}
	if err := restored.Plan(7); err != nil {
		t.Fatal(err)
	}
	if round, _ := restored.eng.Open(); round.Pool != 1 {
		t.Fatalf("round 7 pool %d, want 1", round.Pool)
	}
	// An open round's set was collected for that round, not a later one.
	mid, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	*mid.PresentT = 8
	if err := cur.Restore(mid); err == nil {
		t.Fatal("restore accepted round 7's presence set as collected for t=8")
	}

	st.PresentT = nil
	unpinned, _ := NewCurator(testConfig(testGrid()))
	if err := unpinned.Restore(st); err != nil {
		t.Fatal(err)
	}
	if err := unpinned.Plan(0); err != nil {
		t.Fatalf("unpinned restored set refused: %v", err)
	}
}

// TestPresenceConflictsOverHTTP: both refusals answer 409 on the wire, and
// so does a Plan for a timestamp the presence set was not collected for.
func TestPresenceConflictsOverHTTP(t *testing.T) {
	cur, _ := NewCurator(testConfig(testGrid()))
	h := NewHandler(cur)
	post := func(path, contentType string, body []byte) int {
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	presence := func(ts int, users ...int) int {
		frame, err := encodeUsersFrame(frameKindPresence, ts, users)
		if err != nil {
			t.Fatal(err)
		}
		return post("/v1/presence", WireContentType, frame)
	}
	plan := func(ts int) int {
		return post("/v1/plan", "application/json", []byte(fmt.Sprintf(`{"t":%d}`, ts)))
	}
	for _, step := range []struct {
		name string
		code int
		want int
	}{
		{"presence t=1", presence(1, 1), http.StatusNoContent},
		{"presence t=2 into the t=1 set", presence(2, 2), http.StatusConflict},
		{"plan t=0 over the t=1 set", plan(0), http.StatusConflict},
		{"plan t=1", plan(1), http.StatusNoContent},
		{"presence t=2 during round 1", presence(2, 2), http.StatusConflict},
	} {
		if step.code != step.want {
			t.Fatalf("%s answered %d, want %d", step.name, step.code, step.want)
		}
	}
}
