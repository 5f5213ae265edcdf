package remote

import (
	"bytes"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"retrasyn/internal/ldp"
)

// driveGatewayRounds replays T identical rounds through a gateway with a
// caller-owned RNG, returning the curator's report count.
func driveGatewayRounds(t *testing.T, cur *Curator, gw *Gateway, rng ldp.Rand, T int) int {
	t.Helper()
	d := cur.DomainSize()
	users := make([]int, 30)
	for i := range users {
		users[i] = i
	}
	for ts := 0; ts < T; ts++ {
		if err := gw.AnnouncePresence(users, ts); err != nil {
			t.Fatalf("t=%d presence: %v", ts, err)
		}
		if err := cur.Plan(ts); err != nil {
			t.Fatalf("t=%d plan: %v", ts, err)
		}
		as, err := gw.Assignments(users, ts)
		if err != nil {
			t.Fatalf("t=%d assignments: %v", ts, err)
		}
		var batch []BatchReport
		for i, a := range as {
			if !a.Report {
				continue
			}
			oracle := ldp.MustOUE(d, a.Epsilon)
			batch = append(batch, BatchReport{User: users[i], Ones: oracle.Perturb(rng, users[i]%d)})
		}
		// Alternate the report form so the run exercises both the sparse and
		// the packed frame.
		if ts%2 == 0 && len(batch) > 0 {
			packed, err := PackReportBatch(batch, d)
			if err != nil {
				t.Fatalf("t=%d pack: %v", ts, err)
			}
			if err := gw.ReportPacked(ts, d, packed); err != nil {
				t.Fatalf("t=%d packed report: %v", ts, err)
			}
		} else if err := gw.ReportBatch(ts, batch); err != nil {
			t.Fatalf("t=%d sparse report: %v", ts, err)
		}
		if err := cur.Finalize(ts, len(users)); err != nil {
			t.Fatalf("t=%d finalize: %v", ts, err)
		}
	}
	_, reports := cur.Stats()
	return reports
}

// TestGatewayWireBitIdentity pins the gateway's release over the binary
// wire. The pin was recorded when the framed endpoints still spoke JSON as
// well, and the JSON, binary and auto-negotiated runs all released exactly
// this: dropping an encoding changed bytes on the wire, never the release.
func TestGatewayWireBitIdentity(t *testing.T) {
	const (
		wantReports = 51
		wantHash    = 0xe7d7c97e99bfebd3
	)
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	gw := NewGateway(srv.URL, nil)
	gw.SetRetryPolicy(fastPolicy())
	if n := driveGatewayRounds(t, cur, gw, ldp.NewRand(99, 7), 8); n != wantReports {
		t.Fatalf("reports = %d, want %d", n, wantReports)
	}
	if got := releaseHash(cur.Synthetic("x")); got != wantHash {
		t.Fatalf("release hash = %#x, want %#x", got, uint64(wantHash))
	}
}

// TestClientWireBitIdentity runs the full device-client protocol —
// one-user presence frames, one-user assignment polls, one-entry packed
// report frames — and pins the CSV release. Like the gateway pin, it was
// recorded when the JSON, binary and auto-negotiated clients all released
// these bytes.
func TestClientWireBitIdentity(t *testing.T) {
	clientWireRun(t, 1.0, 94, 0xe40e3343a80747f9)
}

// TestClientWireBitIdentityHighEpsilon runs the same protocol at ε = 6, above
// the ε ≈ 4.1 size crossover (ldp.PreferPacked) where devices used to send
// index lists and the curator folded them one index at a time. The pin was
// recorded on that code; packed rows release the same bytes.
func TestClientWireBitIdentityHighEpsilon(t *testing.T) {
	clientWireRun(t, 6.0, 94, 0x94d5560434ff2c31)
}

// clientWireRun drives 60 device clients through 12 rounds over HTTP at
// budget eps and checks the report count and the CSV release hash.
func clientWireRun(t *testing.T, eps float64, wantReports int, wantCSVHash uint64) {
	t.Helper()
	g := testGrid()
	cfg := testConfig(g)
	cfg.Epsilon = eps
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const T = 12
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	clients, _ := buildClients(t, g, cur, srv.URL, 60, T)
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
			t.Fatal(err)
		}
		for _, c := range clients {
			if _, err := c.MaybeReport(ts); err != nil {
				t.Fatalf("t=%d report: %v", ts, err)
			}
		}
		if err := co.Finalize(ts, active); err != nil {
			t.Fatal(err)
		}
	}
	body, err := co.Synthetic()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(body)
	_, reports := cur.Stats()
	if reports != wantReports {
		t.Fatalf("reports = %d, want %d", reports, wantReports)
	}
	if got := h.Sum64(); got != wantCSVHash {
		t.Fatalf("CSV release hash = %#x, want %#x", got, wantCSVHash)
	}
}

// TestFramedEndpointsRejectJSON: the hot-path endpoints take only binary
// frames. A JSON body gets 415 naming the type it carried, the retired
// single-user GET /v1/assignment is gone, and none of it disturbs the open
// round.
func TestFramedEndpointsRejectJSON(t *testing.T) {
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cur))
	defer srv.Close()
	users := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	sampled := driveRound(t, cur, 0, users)
	if len(sampled) == 0 {
		t.Fatal("no users sampled")
	}

	for path, body := range map[string]string{
		"/v1/presence":    `{"t":0,"users":[9]}`,
		"/v1/assignments": `{"t":0,"users":[1]}`,
		"/v1/report":      `{"user":1,"t":0,"ones":[0]}`,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("%s with JSON: status %d, want 415", path, resp.StatusCode)
		}
		if !strings.Contains(string(msg), "application/json") {
			t.Fatalf("%s: 415 body %q does not name the received type", path, msg)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/assignment?user=1&t=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/assignment: status %d, want 404 or 405", resp.StatusCode)
	}

	// The round is intact: the sampled users report over frames and the
	// round finalizes with exactly their reports.
	d := cur.DomainSize()
	rng := ldp.NewRand(5, 6)
	var batch []BatchReport
	for u, a := range sampled {
		batch = append(batch, BatchReport{User: u, Ones: ldp.MustOUE(d, a.Epsilon).Perturb(rng, u%d)})
	}
	frame, err := EncodeSparseReportFrame(0, batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/report", WireContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("framed report after JSON attempts: status %d", resp.StatusCode)
	}
	if err := cur.Finalize(0, len(users)); err != nil {
		t.Fatal(err)
	}
	if _, reports := cur.Stats(); reports != len(batch) {
		t.Fatalf("reports = %d, want %d", reports, len(batch))
	}
}
