package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// protoDriver drives the curator protocol in-process against a fixed
// trajectory set, perturbing each client's state once per timestamp so the
// same report bits can be fed to several curators in lockstep.
type protoDriver struct {
	dom   *transition.Domain
	trajs []trajectory.CellTrajectory
	rngs  []*ldp.Source
}

func newProtoDriver(g *grid.System, dom *transition.Domain, n, T int) *protoDriver {
	rng := ldp.NewRand(3, 5)
	d := &protoDriver{dom: dom}
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
		d.trajs = append(d.trajs, trajectory.CellTrajectory{Start: start, Cells: cells})
		d.rngs = append(d.rngs, ldp.NewSource(uint64(u)+100, (uint64(u)+100)^0xbb67ae8584caa73b))
	}
	return d
}

func (d *protoDriver) stateAt(u, t int) (transition.State, bool) {
	tr := d.trajs[u]
	switch {
	case t == tr.Start:
		return transition.EnterState(tr.Cells[0]), true
	case t > tr.Start && t <= tr.End():
		i := t - tr.Start
		return transition.MoveState(tr.Cells[i-1], tr.Cells[i]), true
	case t == tr.End()+1:
		return transition.QuitState(tr.Cells[len(tr.Cells)-1]), true
	default:
		return transition.State{}, false
	}
}

// step runs one protocol timestamp against every curator in curs, shipping
// the *same* perturbed bits to all of them; the curators' own randomness
// (sampling, synthesis) stays per-curator.
func (d *protoDriver) step(t *testing.T, ts int, curs ...*Curator) {
	t.Helper()
	active := 0
	for u := range d.trajs {
		if _, ok := d.stateAt(u, ts); ok {
			for _, c := range curs {
				if err := c.PresenceBatch([]int{u}, ts); err != nil {
					t.Fatalf("t=%d presence: %v", ts, err)
				}
			}
		}
		tr := d.trajs[u]
		if ts >= tr.Start && ts <= tr.End() {
			active++
		}
	}
	for _, c := range curs {
		if err := c.Plan(ts); err != nil {
			t.Fatalf("t=%d plan: %v", ts, err)
		}
	}
	for u := range d.trajs {
		state, ok := d.stateAt(u, ts)
		if !ok {
			continue
		}
		a, err := assignmentFor(curs[0], u, ts)
		if err != nil {
			t.Fatalf("t=%d assignment: %v", ts, err)
		}
		for _, c := range curs[1:] {
			b, err := assignmentFor(c, u, ts)
			if err != nil {
				t.Fatalf("t=%d assignment: %v", ts, err)
			}
			if a != b {
				t.Fatalf("t=%d user %d: curators diverged on assignment: %+v vs %+v", ts, u, a, b)
			}
		}
		if !a.Report {
			continue
		}
		idx, ok := d.dom.Index(state)
		if !ok {
			t.Fatalf("state outside domain")
		}
		ones := ldp.MustOUE(d.dom.Size(), a.Epsilon).Perturb(d.rngs[u], idx)
		for _, c := range curs {
			if err := c.ReportBatch(ts, []BatchReport{{User: u, Ones: ones}}); err != nil {
				t.Fatalf("t=%d report: %v", ts, err)
			}
		}
	}
	for _, c := range curs {
		if err := c.Finalize(ts, active); err != nil {
			t.Fatalf("t=%d finalize: %v", ts, err)
		}
	}
}

func equalReleases(a, b *trajectory.Dataset) bool {
	if a.T != b.T || len(a.Trajs) != len(b.Trajs) {
		return false
	}
	for i := range a.Trajs {
		if a.Trajs[i].Start != b.Trajs[i].Start || len(a.Trajs[i].Cells) != len(b.Trajs[i].Cells) {
			return false
		}
		for j, c := range a.Trajs[i].Cells {
			if b.Trajs[i].Cells[j] != c {
				return false
			}
		}
	}
	return true
}

// TestCuratorSnapshotRoundTrip checkpoints the curator at T/2 — serialized
// through JSON, as the /v1/snapshot endpoint ships it — restores into a
// fresh curator, continues both under identical traffic, and demands
// bit-identical releases.
func TestCuratorSnapshotRoundTrip(t *testing.T) {
	g := testGrid()
	const T = 24
	uninterrupted, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	donor, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	drv := newProtoDriver(g, uninterrupted.Domain(), 90, T)
	for ts := 0; ts < T/2; ts++ {
		drv.step(t, ts, uninterrupted, donor)
	}

	st, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewCurator(testConfig(g))
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

	for ts := T / 2; ts < T; ts++ {
		drv.step(t, ts, uninterrupted, resumed)
	}
	if !equalReleases(uninterrupted.Synthetic("syn"), resumed.Synthetic("syn")) {
		t.Fatal("restored curator's release differs from the uninterrupted one")
	}

	// Config mismatches are rejected.
	otherCfg := testConfig(g)
	otherCfg.Epsilon = 2.0
	other, err := NewCurator(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(&decoded); err == nil {
		t.Fatal("restore across mismatched configs accepted")
	}
}

// TestBatchedReportAndSnapshotHTTP exercises the batched /v1/report path and
// the /v1/snapshot + /v1/restore endpoints over the wire.
func TestBatchedReportAndSnapshotHTTP(t *testing.T) {
	g := testGrid()
	cur, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	const T = 16
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	drv := newProtoDriver(g, cur.Domain(), 80, T)
	co := NewCoordinator(srv.URL, nil)

	must := func(frame []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	post := func(path string, frame []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, WireContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	// unsampled is a user ID no trajectory owns, so it is never sampled.
	unsampled := len(drv.trajs)

	for ts := 0; ts < T; ts++ {
		active := 0
		for u := range drv.trajs {
			if _, ok := drv.stateAt(u, ts); ok {
				if resp := post("/v1/presence", must(encodeUsersFrame(frameKindPresence, ts, []int{u}))); resp.StatusCode != http.StatusNoContent {
					t.Fatalf("t=%d presence: %s", ts, resp.Status)
				}
			}
			tr := drv.trajs[u]
			if ts >= tr.Start && ts <= tr.End() {
				active++
			}
		}
		if err := co.Plan(ts); err != nil {
			t.Fatal(err)
		}
		// A gateway aggregates every sampled client's perturbed bits into
		// one batched upload.
		var batch []BatchReport
		for u := range drv.trajs {
			state, ok := drv.stateAt(u, ts)
			if !ok {
				continue
			}
			a, err := assignmentFor(cur, u, ts)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Report {
				continue
			}
			idx, _ := drv.dom.Index(state)
			batch = append(batch, BatchReport{
				User: u,
				Ones: ldp.MustOUE(drv.dom.Size(), a.Epsilon).Perturb(drv.rngs[u], idx),
			})
		}
		if len(batch) > 0 {
			// A batch containing an unsampled user is rejected whole.
			bad := append([]BatchReport{{User: unsampled, Ones: nil}}, batch...)
			if resp := post("/v1/report", must(EncodeSparseReportFrame(ts, bad))); resp.StatusCode != http.StatusConflict {
				t.Fatalf("t=%d: poisoned batch accepted: %s", ts, resp.Status)
			}
			if resp := post("/v1/report", must(EncodeSparseReportFrame(ts, batch))); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("t=%d batch: %s", ts, resp.Status)
			}
			// Batched uploads are all-or-nothing and one-shot.
			if resp := post("/v1/report", must(EncodeSparseReportFrame(ts, batch[:1]))); resp.StatusCode != http.StatusConflict {
				t.Fatalf("t=%d: replayed batch accepted: %s", ts, resp.Status)
			}
		}
		if err := co.Finalize(ts, active); err != nil {
			t.Fatal(err)
		}
	}
	rounds, reports := cur.Stats()
	if rounds == 0 || reports == 0 {
		t.Fatalf("no batched activity: rounds=%d reports=%d", rounds, reports)
	}
	if err := cur.Synthetic("syn").Validate(g, true); err != nil {
		t.Fatal(err)
	}

	// Snapshot over the wire, restore into a second server.
	resp, err := http.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st CuratorState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	cur2, err := NewCurator(testConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewHandler(cur2))
	defer srv2.Close()
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	// Restore onto the same curator, then onto the second server.
	for _, base := range []string{srv.URL, srv2.URL} {
		resp, err := http.Post(base+"/v1/restore", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("restore onto %s: %s", base, resp.Status)
		}
	}
	if !equalReleases(cur.Synthetic("syn"), cur2.Synthetic("syn")) {
		t.Fatal("restored curator serves a different release")
	}
}
