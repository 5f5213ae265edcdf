package main

import (
	"bytes"
	"net/http/httptest"
	"reflect"
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
// goroutines. Its point is the race detector: the gateways record into
// shared latency histograms, which must exist before the goroutines start —
// they used to first-insert into run.hists concurrently. The zero-loss
// ledger must balance as well.
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
		if err := r.replayHTTP(srv.URL, &report); err != nil {
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
}

// TestDevicePoolPacksStraightOntoTheWire pins the dense round's shortcut —
// PerturbPackedInto on the reused word buffer → Bits — to the route it
// replaced: the same seed through Perturb → remote.PackReportBatch yields the
// same bytes, report for report, at every budget — ε=8 included, where an
// index list would be the smaller encoding.
func TestDevicePoolPacksStraightOntoTheWire(t *testing.T) {
	g, err := retrasyn.NewGrid(6, retrasyn.Bounds{MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	dom := transition.NewDomain(g)
	d := dom.Size()
	var users []int
	var states []transition.State
	var as []remote.Assignment
	for u := 0; u < 3*d; u++ {
		users = append(users, 1000+u)
		states = append(states, dom.StateAt((u*37)%d))
		as = append(as, remote.Assignment{Report: u%5 != 0, Epsilon: 1})
	}

	for _, eps := range []float64{1, 8} {
		for j := range as {
			as[j].Epsilon = eps
		}
		packed, err := newDevicePool(dom, ldp.NewSource(5, 6)).perturb(users, states, as)
		if err != nil {
			t.Fatal(err)
		}
		rng, oracle := ldp.NewSource(5, 6), ldp.MustOUE(d, eps)
		var reports []remote.BatchReport
		for j, a := range as {
			if a.Report {
				idx, _ := dom.Index(states[j])
				reports = append(reports, remote.BatchReport{User: users[j], Ones: oracle.Perturb(rng, idx)})
			}
		}
		want, err := remote.PackReportBatch(reports, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(packed) == 0 || !reflect.DeepEqual(packed, want) {
			t.Fatalf("ε=%v: straight-to-wire payloads differ from the ones→pack route", eps)
		}
	}
}
