package remote

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"retrasyn/internal/geofence"
)

// testFence builds a connected district fence over the unit square for
// protocol tests (matching the engine-level geofence tests).
func testFence(t *testing.T) *geofence.Fence {
	t.Helper()
	f, err := geofence.NewFence([]geofence.Polygon{
		{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0.5, Y: 0.4}, {X: 0, Y: 0.4}},
		{{X: 0.5, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 0.4}, {X: 0.5, Y: 0.4}},
		{{X: 0, Y: 0.4}, {X: 0.5, Y: 0.4}, {X: 0, Y: 1}},
		{{X: 0.5, Y: 0.4}, {X: 1, Y: 0.4}, {X: 1, Y: 1}, {X: 0.75, Y: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGeofenceCuratorEndToEnd drives the full HTTP collection protocol with
// the curator running on a polygonal fence: clients encode against the
// fence's transition domain and the release satisfies its shared-edge
// reachability.
func TestGeofenceCuratorEndToEnd(t *testing.T) {
	fence := testFence(t)
	cur, err := NewCurator(testConfig(fence))
	if err != nil {
		t.Fatal(err)
	}
	const T = 20
	cur.EnableLedger(T)
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()

	clients, _ := buildClients(t, fence, cur, srv.URL, 100, T)
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
		t.Fatalf("no activity on the geofence curator: rounds=%d reports=%d", rounds, reports)
	}
	syn := cur.Synthetic("remote-fence")
	if err := syn.Validate(fence, true); err != nil {
		t.Fatalf("geofence release violates reachability: %v", err)
	}
	if got := cur.Ledger().MaxUserWindowSum(5, func(int) float64 { return 1.0 }); got > 1.0+1e-9 {
		t.Fatalf("per-user window budget %v exceeds ε", got)
	}
}

// TestGeofenceCuratorSnapshotRoundTrip pins the curator checkpoint cycle on
// the fence backend: the fingerprint (with the polygon layout hashed in)
// survives the JSON round trip, restores into a matching curator, and is
// rejected by curators on other layouts.
func TestGeofenceCuratorSnapshotRoundTrip(t *testing.T) {
	fence := testFence(t)
	cur, err := NewCurator(testConfig(fence))
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
	if round.Engine.Config.Discretizer != fence.Fingerprint() {
		t.Fatalf("fence fingerprint lost in JSON round trip: %q", round.Engine.Config.Discretizer)
	}
	fresh, err := NewCurator(testConfig(fence))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(&round); err != nil {
		t.Fatalf("fence snapshot rejected by a matching curator: %v", err)
	}
	// Cross-layout restores fail: grid curator, and a curator on a fence
	// with one vertex moved.
	gcur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	if err := gcur.Restore(&round); err == nil {
		t.Fatal("fence snapshot restored into a grid curator")
	}
	other, err := geofence.NewFence([]geofence.Polygon{
		{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0.5, Y: 0.4}, {X: 0, Y: 0.4}},
		{{X: 0.5, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 0.4}, {X: 0.5, Y: 0.4}},
		{{X: 0, Y: 0.4}, {X: 0.5, Y: 0.4}, {X: 0, Y: 1}},
		{{X: 0.5, Y: 0.4}, {X: 1, Y: 0.4}, {X: 1, Y: 1}, {X: 0.8, Y: 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ocur, err := NewCurator(testConfig(other))
	if err != nil {
		t.Fatal(err)
	}
	if err := ocur.Restore(&round); err == nil {
		t.Fatal("fence snapshot restored into a curator on a different fence")
	}

	// Legacy (fingerprint-less) snapshots never cross onto a fence.
	round.Engine.Config.Discretizer = ""
	legacy, err := NewCurator(testConfig(fence))
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.Restore(&round); err == nil {
		t.Fatal("fingerprint-less snapshot accepted by a geofence curator")
	}
}

// TestGeofenceCuratorRelayout migrates a serving fence curator onto a
// rebuilt quadtree via the forced relayout path — the Overlapper
// generalization working through the remote layer — and round-trips the
// migrated state through a checkpoint (which embeds the quadtree layout).
func TestGeofenceCuratorRelayout(t *testing.T) {
	fence := testFence(t)
	cfg := testConfig(fence)
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()

	const T = 12
	clients, _ := buildClients(t, fence, cur, srv.URL, 80, T)
	co := NewCoordinator(srv.URL, nil)
	for ts := 0; ts < T; ts++ {
		active := 0
		for _, c := range clients {
			if err := c.AnnouncePresence(ts); err != nil {
				t.Fatal(err)
			}
			if c.LocatedAt(ts) {
				active++
			}
		}
		if err := co.Plan(ts); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if _, err := c.MaybeReport(ts); err != nil {
				t.Fatal(err)
			}
		}
		if err := co.Finalize(ts, active); err != nil {
			t.Fatal(err)
		}
	}
	status, err := cur.Relayout(true)
	if err != nil {
		t.Fatalf("forced relayout off the fence: %v", err)
	}
	if !status.Switched || status.Generation != 1 {
		t.Fatalf("fence curator did not migrate: %+v", status)
	}
	// The migrated curator checkpoints and restores, rebuilding the layout
	// it migrated onto.
	st, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Layout == nil || st.Engine.Layout.Kind != "quadtree" {
		t.Fatalf("migrated snapshot carries layout %+v, want a quadtree", st.Engine.Layout)
	}
	fresh, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(st); err != nil {
		t.Fatalf("restore of the migrated fence curator: %v", err)
	}
	if got := fresh.LayoutStatus(); got.Generation != 1 || got.Fingerprint != status.Fingerprint {
		t.Fatalf("restored curator on layout %+v, want %+v", got, status)
	}
}
