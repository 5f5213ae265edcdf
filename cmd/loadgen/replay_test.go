package main

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"retrasyn"
	"retrasyn/internal/allocation"
	"retrasyn/internal/dataset"
	"retrasyn/internal/ldp"
	"retrasyn/internal/remote"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// newTestRun builds a replay over a small in-memory random-walk stream.
func newTestRun(t *testing.T, g *retrasyn.Grid, gateways int) *run {
	t.Helper()
	const users, T = 200, 12
	rng := ldp.NewRand(7, 9)
	d := &trajectory.Dataset{Name: "walk", T: T}
	for u := 0; u < users; u++ {
		start := rng.IntN(T / 2)
		c := spatial.Cell(rng.IntN(g.NumCells()))
		cells := []spatial.Cell{c}
		for ts := start + 1; ts < T && rng.Float64() > 0.1; ts++ {
			ns := g.Neighbors(c)
			c = ns[rng.IntN(len(ns))]
			cells = append(cells, c)
		}
		d.Trajs = append(d.Trajs, trajectory.CellTrajectory{Start: start, Cells: cells})
	}
	var buf bytes.Buffer
	if err := dataset.WriteDataset(&buf, d, g); err != nil {
		t.Fatal(err)
	}
	rd, err := dataset.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return &run{
		reader:   rd,
		space:    g,
		dom:      transition.NewDomain(g),
		gateways: gateways,
		seed:     5,
		users:    make(map[int]struct{}),
		hists:    map[string]*hist{},
	}
}

// TestReplayGatewaysShareHistograms replays through four concurrent gateway
// goroutines in both modes. Its point is the race detector: the gateways
// record into shared latency histograms, which must exist before the
// goroutines start — they used to first-insert into run.hists concurrently.
// The zero-loss ledger must balance as well.
func TestReplayGatewaysShareHistograms(t *testing.T) {
	g, err := retrasyn.NewGrid(4, retrasyn.Bounds{MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("http", func(t *testing.T) {
		cur, err := remote.NewCurator(remote.CuratorConfig{
			Space: g, Epsilon: 1, W: 3, Division: allocation.Population, Lambda: 5, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(remote.NewHandler(cur))
		defer srv.Close()
		r := newTestRun(t, g, 4)
		var report benchReport
		if err := r.replayHTTP(srv.URL, remote.WireBinary, &report); err != nil {
			t.Fatal(err)
		}
		r.finish(&report)
		for _, name := range []string{"presence", "assignments", "report", "round"} {
			if report.Latency[name].Count == 0 {
				t.Fatalf("no %q latency recorded: %+v", name, report.Latency)
			}
		}
		// loadgen's ZeroLoss also wants a collecting round per timestamp,
		// which the adaptive strategy does not promise; check the ledger.
		if st := report.Curator; st.PresenceEvents != r.eventsEmitted || int64(st.Reports) != r.reportsSent || r.eventsSkipped != 0 {
			t.Fatalf("loss: emitted %d / presence %d, sent %d / received %d, skipped %d",
				r.eventsEmitted, st.PresenceEvents, r.reportsSent, st.Reports, r.eventsSkipped)
		}
	})
	t.Run("ingest", func(t *testing.T) {
		r := newTestRun(t, g, 4)
		var report benchReport
		opts := retrasyn.Options{Grid: g, Epsilon: 1, Window: 3, Division: retrasyn.PopulationDivision, Lambda: 5, Seed: 1}
		if err := r.replayIngest(opts, 0, &report); err != nil {
			t.Fatal(err)
		}
		r.finish(&report)
		if !report.ZeroLoss || report.Latency["submit"].Count == 0 {
			t.Fatalf("ingest replay lost events or recorded nothing: %+v", report)
		}
	})
}
