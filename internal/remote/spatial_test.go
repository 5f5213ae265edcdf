package remote

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"retrasyn/internal/ldp"
	"retrasyn/internal/spatial"
)

// testQuadtree grows a skewed density-adaptive quadtree for protocol tests.
func testQuadtree(t *testing.T) *spatial.Quadtree {
	t.Helper()
	rng := ldp.NewRand(808, 809)
	pts := make([]spatial.Point, 0, 2000)
	for i := 0; i < 2000; i++ {
		if i%4 == 0 {
			pts = append(pts, spatial.Point{X: rng.Float64(), Y: rng.Float64()})
		} else {
			pts = append(pts, spatial.Point{X: rng.Float64() * 0.25, Y: rng.Float64() * 0.25})
		}
	}
	qt, err := spatial.NewQuadtree(spatial.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, pts,
		spatial.QuadtreeOptions{MaxLeaves: 20})
	if err != nil {
		t.Fatal(err)
	}
	return qt
}

// TestQuadtreeCuratorEndToEnd drives the full HTTP collection protocol with
// the curator running on the density-adaptive quadtree: clients encode
// against the quadtree's transition domain, the release must satisfy the
// tree's reachability constraint, and the w-event invariant holds.
func TestQuadtreeCuratorEndToEnd(t *testing.T) {
	qt := testQuadtree(t)
	cur, err := NewCurator(testConfig(qt))
	if err != nil {
		t.Fatal(err)
	}
	const T = 20
	cur.EnableLedger(T)
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()

	clients, orig := buildClients(t, qt, cur, srv.URL, 100, T)
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
		t.Fatalf("no activity on the quadtree curator: rounds=%d reports=%d", rounds, reports)
	}
	syn := cur.Synthetic("remote-qt")
	if err := syn.Validate(qt, true); err != nil {
		t.Fatalf("quadtree release violates reachability: %v", err)
	}
	synActive := syn.ActiveCounts()
	for ts, want := range orig.ActiveCounts() {
		if synActive[ts] != want {
			t.Fatalf("t=%d: synthetic active %d, real %d", ts, synActive[ts], want)
		}
	}
	if got := cur.Ledger().MaxUserWindowSum(5, func(int) float64 { return 1.0 }); got > 1.0+1e-9 {
		t.Fatalf("per-user window budget %v exceeds ε", got)
	}
}

// TestCuratorLegacySnapshotCompat mirrors the engine regression: a snapshot
// whose fingerprint has no discretizer field (pre-spatial builds) restores
// into a uniform-grid curator but is rejected by a quadtree one.
func TestCuratorLegacySnapshotCompat(t *testing.T) {
	g := testGrid()
	cur, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.Engine.Config.Discretizer = "" // what a pre-spatial build wrote
	fresh, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(st); err != nil {
		t.Fatalf("legacy uniform snapshot rejected: %v", err)
	}

	qt := testQuadtree(t)
	qcur, err := NewCurator(testConfig(qt))
	if err != nil {
		t.Fatal(err)
	}
	qst, err := qcur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	qst.Engine.Config.Discretizer = ""
	qfresh, err := NewCurator(testConfig(qt))
	if err != nil {
		t.Fatal(err)
	}
	if err := qfresh.Restore(qst); err == nil {
		t.Fatal("fingerprint-less snapshot accepted by a quadtree curator")
	}
}

// TestCuratorSnapshotCrossDiscretizer ensures curator state cannot migrate
// between different spatial layouts, and that the fingerprint survives the
// JSON round trip a checkpoint file takes.
func TestCuratorSnapshotCrossDiscretizer(t *testing.T) {
	qt := testQuadtree(t)
	cur, err := NewCurator(testConfig(qt))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var round CuratorState
	if err := json.Unmarshal(blob, &round); err != nil {
		t.Fatal(err)
	}
	if round.Engine.Config.Discretizer != qt.Fingerprint() {
		t.Fatalf("fingerprint lost in JSON round trip: %q", round.Engine.Config.Discretizer)
	}
	gcur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	if err := gcur.Restore(&round); err == nil {
		t.Fatal("quadtree snapshot restored into a grid curator")
	}
}
