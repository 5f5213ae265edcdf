package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"retrasyn/internal/trajectory"
)

// driveRounds runs the in-process protocol for timestamps [from, to) with a
// fresh client fleet built against the curator's *current* domain — exactly
// what devices do after a migration: re-fetch the domain and re-encode.
func driveRounds(t *testing.T, cur *Curator, srvURL string, users, from, to int) {
	t.Helper()
	clients, _ := buildClients(t, cur.Domain().Space(), cur, srvURL, users, to)
	for ts := from; ts < to; ts++ {
		active := 0
		for _, c := range clients {
			if !c.LocatedAt(ts) {
				continue
			}
			if err := c.AnnouncePresence(ts); err != nil {
				t.Fatalf("t=%d presence: %v", ts, err)
			}
			active++
		}
		if err := cur.Plan(ts); err != nil {
			t.Fatalf("t=%d plan: %v", ts, err)
		}
		for _, c := range clients {
			if _, err := c.MaybeReport(ts); err != nil {
				t.Fatalf("t=%d report: %v", ts, err)
			}
		}
		if err := cur.Finalize(ts, active); err != nil {
			t.Fatalf("t=%d finalize: %v", ts, err)
		}
	}
}

// TestCuratorRelayout drives collection rounds, forces a re-discretization
// through the HTTP endpoint, and checks the curator keeps serving on the new
// layout with its model mass conserved.
func TestCuratorRelayout(t *testing.T) {
	cfg := testConfig(testGrid())
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()

	driveRounds(t, cur, srv.URL, 80, 0, 8)
	before := 0.0
	for _, f := range cur.eng.Model().Freqs() {
		before += f
	}
	bootFP := cur.LayoutStatus().Fingerprint

	resp, err := http.Post(srv.URL+"/v1/relayout", "application/json", bytes.NewBufferString(`{"force": true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relayout status %d", resp.StatusCode)
	}
	var status RelayoutStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if !status.Switched || status.Generation != 1 {
		t.Fatalf("forced relayout did not switch: %+v", status)
	}
	if status.Fingerprint == bootFP {
		t.Fatal("layout fingerprint unchanged after a switch")
	}
	after := 0.0
	for _, f := range cur.eng.Model().Freqs() {
		after += f
	}
	if diff := after - before; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("model mass not conserved across curator migration: %v → %v", before, after)
	}

	// Stats surface the new layout.
	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		LayoutGeneration  int    `json:"layout_generation"`
		LayoutFingerprint string `json:"layout_fingerprint"`
		DomainSize        int    `json:"domain_size"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.LayoutGeneration != 1 || stats.LayoutFingerprint != status.Fingerprint || stats.DomainSize != cur.Domain().Size() {
		t.Fatalf("stats do not reflect the migration: %+v", stats)
	}

	// The protocol keeps working on the new domain with re-encoded clients.
	driveRounds(t, cur, srv.URL, 80, 8, 14)
	if err := cur.Synthetic("post").Validate(cur.Domain().Space(), false); err != nil {
		t.Fatalf("post-migration release invalid: %v", err)
	}
}

// TestCuratorRelayoutRejectedMidRound pins the protocol guard: migrating
// between Plan and Finalize would orphan the open round's assignments and
// aggregate, so it must be refused.
func TestCuratorRelayoutRejectedMidRound(t *testing.T) {
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.PresenceBatch([]int{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cur.Plan(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Relayout(true); err == nil {
		t.Fatal("relayout accepted while a round is open")
	}
	if err := cur.Finalize(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Relayout(false); err != nil {
		t.Fatalf("relayout after finalize: %v", err)
	}
}

// TestCuratorSnapshotAcrossRelayout pins durable state across migrations: a
// snapshot taken after a forced migration restores into a fresh curator
// built with the boot config, which resumes on the migrated layout with an
// identical release and identical future synthesis.
func TestCuratorSnapshotAcrossRelayout(t *testing.T) {
	cfg := testConfig(testGrid())
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	driveRounds(t, cur, srv.URL, 60, 0, 7)
	status, err := cur.Relayout(true)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Switched {
		t.Fatal("forced relayout did not switch")
	}
	st, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var decoded CuratorState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(&decoded); err != nil {
		t.Fatal(err)
	}
	rs := resumed.LayoutStatus()
	if rs.Generation != 1 || rs.Fingerprint != status.Fingerprint {
		t.Fatalf("restored layout %+v ≠ snapshot layout %+v", rs, status)
	}
	if !reflect.DeepEqual(cur.Synthetic("x"), resumed.Synthetic("x")) {
		t.Fatal("restored release differs from the donor's")
	}
	// Identical silent continuations (synthesis consumes the curator RNG).
	for _, c := range []*Curator{cur, resumed} {
		for ts := 7; ts < 12; ts++ {
			if err := c.Plan(ts); err != nil {
				t.Fatal(err)
			}
			if err := c.Finalize(ts, 40); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(cur.Synthetic("y"), resumed.Synthetic("y")) {
		t.Fatal("restored curator diverged from the donor after resuming")
	}
}

// TestCuratorAutoRelayoutCadence proves the periodic path: with
// RediscretizeEvery set and a near-zero threshold, Finalize migrates at the
// window boundary on its own.
func TestCuratorAutoRelayoutCadence(t *testing.T) {
	// A doubled leaf budget guarantees the rebuilt layout differs from the
	// boot tree, so the switch observably fires at the first boundary.
	cfg := testConfig(testQuadtree(t))
	cfg.RediscretizeEvery = 1 // every W=5 timestamps
	cfg.RelayoutThreshold = 1e-9
	cfg.RelayoutLeaves = 48
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	driveRounds(t, cur, srv.URL, 80, 0, 5)
	if got := cur.LayoutStatus().Generation; got < 1 {
		t.Fatalf("no automatic migration after the first rebuild period (generation %d)", got)
	}
}

// TestSyntheticReleaseSurvivesRelayout pins the GET /v1/synthetic path: the
// handler takes Curator.Synthetic under the lock but writes it after
// releasing it, so a migration running meanwhile must neither race the
// write nor rewrite the release.
func TestSyntheticReleaseSurvivesRelayout(t *testing.T) {
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	driveRounds(t, cur, srv.URL, 80, 0, 8)

	rel := cur.Synthetic("remote")
	var want bytes.Buffer
	if err := trajectory.WriteCells(&want, rel); err != nil {
		t.Fatal(err)
	}
	var during bytes.Buffer
	written := make(chan error, 1)
	go func() { written <- trajectory.WriteCells(&during, rel) }()
	status, err := cur.Relayout(true)
	if werr := <-written; werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !status.Switched {
		t.Fatalf("forced relayout did not switch: %+v", status)
	}
	var remapped bytes.Buffer
	if err := trajectory.WriteCells(&remapped, cur.Synthetic("remote")); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(remapped.Bytes(), want.Bytes()) {
		t.Fatal("migration remapped no released cell; the test checks nothing")
	}
	var after bytes.Buffer
	if err := trajectory.WriteCells(&after, rel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(during.Bytes(), want.Bytes()) || !bytes.Equal(after.Bytes(), want.Bytes()) {
		t.Fatal("a migration rewrote a release handed out before it")
	}
}
