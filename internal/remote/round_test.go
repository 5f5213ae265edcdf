package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/ldp"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

// Tests of the seam between the curator and the round core it drives
// (core.Engine's Plan/Close halves): a release golden, engine-vs-curator
// report-count equivalence, and mid-round checkpointing.

// walkStream builds a random-walk stream with entering/quitting churn: every
// user is one contiguous trajectory, so nobody re-appears after quitting.
func walkStream(g spatial.Discretizer, users, T int, meanLen float64, seed uint64) *trajectory.Stream {
	rng := ldp.NewRand(seed, seed+1)
	d := &trajectory.Dataset{Name: "walk", T: T}
	for u := 0; u < users; u++ {
		start := rng.IntN(T)
		c := spatial.Cell(rng.IntN(g.NumCells()))
		cells := []spatial.Cell{c}
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
	return trajectory.NewStream(d)
}

// streamRound drives timestamp ts of a discretized stream through the
// curator's Go API the way devices would: everyone with a state announces
// presence, the sampled ones perturb it locally (rng is the devices' shared
// randomness) and upload one sparse batch. between, when non-nil, runs while
// the round is open — after the reports landed, before Finalize — and may
// swap the curator (a restore). Returns the curator that closed the round and
// the number of users present.
func streamRound(t *testing.T, cur *Curator, stream *trajectory.Stream, ts int, rng ldp.Rand, between func(*Curator) *Curator) (*Curator, int) {
	t.Helper()
	events := stream.At(ts)
	users := make([]int, len(events))
	for i, ev := range events {
		users[i] = ev.User
	}
	if err := cur.PresenceBatch(users, ts); err != nil {
		t.Fatalf("t=%d presence: %v", ts, err)
	}
	if err := cur.Plan(ts); err != nil {
		t.Fatalf("t=%d plan: %v", ts, err)
	}
	as, err := cur.AssignmentsFor(users, ts)
	if err != nil {
		t.Fatalf("t=%d assignments: %v", ts, err)
	}
	dom := cur.Domain()
	var batch []BatchReport
	for i, ev := range events {
		if !as[i].Report {
			continue
		}
		idx, ok := dom.Index(ev.State)
		if !ok {
			t.Fatalf("t=%d user %d: state outside the domain", ts, ev.User)
		}
		batch = append(batch, BatchReport{User: ev.User, Ones: ldp.MustOUE(dom.Size(), as[i].Epsilon).Perturb(rng, idx)})
	}
	if err := cur.ReportBatch(ts, batch); err != nil {
		t.Fatalf("t=%d report: %v", ts, err)
	}
	if between != nil {
		cur = between(cur)
	}
	if err := cur.Finalize(ts, stream.Active[ts]); err != nil {
		t.Fatalf("t=%d finalize: %v", ts, err)
	}
	return cur, len(events)
}

// releaseHash canonically hashes a synthetic release (the same scheme as
// the engine goldens in internal/core).
func releaseHash(d *trajectory.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(len(d.Trajs))
	for _, tr := range d.Trajs {
		put(tr.Start)
		put(len(tr.Cells))
		for _, c := range tr.Cells {
			put(int(c))
		}
	}
	return h.Sum64()
}

func goldenConfig(div allocation.Division) CuratorConfig {
	cfg := CuratorConfig{Space: testGrid(), Epsilon: 1.0, W: 5, Division: div, Lambda: 6, Seed: 20240731}
	if div == allocation.Budget {
		// Sample collects at t ≡ 0 (mod w) only — exactly when the roster the
		// pre-refactor curator wrongly applied under budget division had
		// recycled everyone, so this hash is the same before and after that
		// fix (TestCuratorBudgetDivisionReportsEveryone pins the fix itself).
		cfg.Strategy = core.StrategySample
	}
	return cfg
}

var curatorGoldens = []struct {
	name string
	div  allocation.Division
	want uint64
}{
	{"population-adaptive", allocation.Population, 0x7f19818c2dc46a29},
	{"budget-sample", allocation.Budget, 0x1d8abc07b62f744e},
}

// TestCuratorGolden pins the direct-drive curator's release bit for bit. The
// hashes were recorded on the commit *before* the curator was rebuilt on
// core.Engine's Plan/Close halves (its own model, sampler, trackers and
// migration still in place): same seed, same stream, same device
// randomness, same release.
func TestCuratorGolden(t *testing.T) {
	for _, tc := range curatorGoldens {
		t.Run(tc.name, func(t *testing.T) {
			cur, err := NewCurator(goldenConfig(tc.div))
			if err != nil {
				t.Fatal(err)
			}
			stream := walkStream(testGrid(), 350, 40, 9, 97)
			rng := ldp.NewRand(5, 8)
			for ts := 0; ts < stream.T; ts++ {
				streamRound(t, cur, stream, ts, rng, nil)
			}
			rounds, reports := cur.Stats()
			if rounds == 0 || reports == 0 {
				t.Fatalf("golden run collected nothing: rounds=%d reports=%d", rounds, reports)
			}
			if got := releaseHash(cur.Synthetic("golden")); got != tc.want {
				t.Fatalf("curator release drifted: got %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestCuratorBudgetDivisionReportsEveryone is the regression test for the
// roster leaking into budget division: there every present user reports in
// every collecting round (each spends ε_t, the window sum is what is
// bounded), so on the same stream the curator must collect exactly what the
// in-process engine collects — one report per present user per timestamp
// under the uniform strategy. The pre-refactor curator rested reporters for
// w timestamps under budget division too and collected a fraction of that.
func TestCuratorBudgetDivisionReportsEveryone(t *testing.T) {
	g := testGrid()
	stream := walkStream(g, 300, 30, 8, 13)
	cfg := CuratorConfig{
		Space: g, Epsilon: 1.0, W: 5, Lambda: 6, Seed: 3,
		Division: allocation.Budget,
		Strategy: core.StrategyUniform,
	}
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := ldp.NewRand(1, 2)
	present := 0
	for ts := 0; ts < stream.T; ts++ {
		_, n := streamRound(t, cur, stream, ts, rng, nil)
		present += n
	}
	eng, err := core.New(core.Options{Config: cfg, OracleMode: core.Aggregate})
	if err != nil {
		t.Fatal(err)
	}
	_, stats := eng.Run(stream, "engine")
	_, reports := cur.Stats()
	if reports != present || reports != stats.TotalReports {
		t.Fatalf("curator collected %d reports, Σ_t present(t) = %d, engine collected %d — all three must agree",
			reports, present, stats.TotalReports)
	}
}

// TestCuratorMidRoundSnapshot checkpoints the curator while a round is open —
// reports folded, Finalize still to come — ships the state through JSON into
// a fresh curator and lets that one finish the round and carry on. Done every
// few rounds over the golden run, the release must still hash to the golden.
func TestCuratorMidRoundSnapshot(t *testing.T) {
	for _, tc := range curatorGoldens {
		t.Run(tc.name, func(t *testing.T) {
			cur, err := NewCurator(goldenConfig(tc.div))
			if err != nil {
				t.Fatal(err)
			}
			swap := func(donor *Curator) *Curator {
				st, err := donor.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if st.Engine.Open == nil {
					t.Fatal("mid-round snapshot carries no open round")
				}
				blob, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				var decoded CuratorState
				if err := json.Unmarshal(blob, &decoded); err != nil {
					t.Fatal(err)
				}
				fresh, err := NewCurator(goldenConfig(tc.div))
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Restore(&decoded); err != nil {
					t.Fatalf("mid-round restore: %v", err)
				}
				return fresh
			}
			stream := walkStream(testGrid(), 350, 40, 9, 97)
			rng := ldp.NewRand(5, 8)
			for ts := 0; ts < stream.T; ts++ {
				var between func(*Curator) *Curator
				if ts%3 == 0 {
					between = swap
				}
				cur, _ = streamRound(t, cur, stream, ts, rng, between)
			}
			if got := releaseHash(cur.Synthetic("golden")); got != tc.want {
				t.Fatalf("release across mid-round restores drifted from the uninterrupted run: got %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestCuratorRejectsV1Snapshot: version-1 checkpoints carried the curator's
// private copy of the round state; they are rejected — with an error naming
// both versions — rather than decoded by a second code path.
func TestCuratorRejectsV1Snapshot(t *testing.T) {
	v1 := []byte(`{"version":1,"config":{"domain_size":132,"epsilon":1,"w":5,"division":1,"lambda":6,"kappa":5,"seed":11},
		"t":3,"phase":0,"present":{},"prev_present":{"4":true},"eps_round":1,"agg_n":0,
		"model":{"freq":[],"init":false},"bootstrapped":false,"roster":{"status":{"4":1},"reported":[[],[],[],[4],[]]},
		"dev":{},"sig":{},"rng":"","rounds":2,"reports":9,"synth":{},"timings":{}}`)
	var st CuratorState
	if err := json.Unmarshal(v1, &st); err != nil {
		t.Fatalf("a v1 blob must at least decode far enough to read its version: %v", err)
	}
	cur, err := NewCurator(testConfig(testGrid()))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := marshalSnapshot(cur)
	err = cur.Restore(&st)
	if err == nil {
		t.Fatal("version-1 snapshot accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "version 2") {
		t.Fatalf("rejection must name both versions, got: %v", err)
	}
	if after, _ := marshalSnapshot(cur); !bytes.Equal(before, after) {
		t.Fatal("rejected restore changed the curator")
	}
}

// TestLedgerPerRoundOverHTTP runs the w-event accounting over the real wire
// path — an httptest server, two batching gateways (one packed, one sparse)
// and a coordinator — with the curator checkpointed over /v1/snapshot and
// restored into a second server in the middle of a round, between the two
// gateways' uploads. The ledger must record each round once, at the budget
// its reporters were assigned: EpsByT[t] = ε_t, so that MaxWindowSum is the
// per-user spend it claims to be. The pre-refactor curator added ε once per
// report.
func TestLedgerPerRoundOverHTTP(t *testing.T) {
	for _, div := range []allocation.Division{allocation.Budget, allocation.Population} {
		t.Run(div.String(), func(t *testing.T) {
			g := testGrid()
			cfg := CuratorConfig{Space: g, Epsilon: 1.0, W: 5, Division: div, Lambda: 6, Seed: 29}
			stream := walkStream(g, 240, 30, 8, 59)
			type deployment struct {
				cur *Curator
				srv *httptest.Server
				gws [2]*Gateway
				co  *Coordinator
			}
			serve := func() *deployment {
				cur, err := NewCurator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				d := &deployment{cur: cur, srv: httptest.NewServer(NewHandler(cur))}
				t.Cleanup(d.srv.Close)
				for i := range d.gws {
					d.gws[i] = NewGateway(d.srv.URL, nil)
					d.gws[i].SetRetryPolicy(fastPolicy())
				}
				d.co = NewCoordinator(d.srv.URL, nil)
				return d
			}
			dep := serve()
			dep.cur.EnableLedger(stream.T)
			dom := dep.cur.Domain()
			rng := ldp.NewRand(8, 13)
			epsAt := make([]float64, stream.T)

			// upload perturbs and ships one gateway's share of the round.
			upload := func(gw *Gateway, packed bool, ts int, events []trajectory.Event) {
				t.Helper()
				users := make([]int, len(events))
				for i, ev := range events {
					users[i] = ev.User
				}
				as, err := gw.Assignments(users, ts)
				if err != nil {
					t.Fatalf("t=%d assignments: %v", ts, err)
				}
				var batch []BatchReport
				for i, ev := range events {
					if !as[i].Report {
						continue
					}
					epsAt[ts] = as[i].Epsilon
					idx, _ := dom.Index(ev.State)
					batch = append(batch, BatchReport{User: ev.User, Ones: ldp.MustOUE(dom.Size(), as[i].Epsilon).Perturb(rng, idx)})
				}
				if packed {
					pb, err := PackReportBatch(batch, dom.Size())
					if err != nil {
						t.Fatal(err)
					}
					err = gw.ReportPacked(ts, dom.Size(), pb)
					if err != nil {
						t.Fatalf("t=%d packed report: %v", ts, err)
					}
				} else if err := gw.ReportBatch(ts, batch); err != nil {
					t.Fatalf("t=%d sparse report: %v", ts, err)
				}
			}

			for ts := 0; ts < stream.T; ts++ {
				var shards [2][]trajectory.Event
				for _, ev := range stream.At(ts) {
					shards[ev.User%2] = append(shards[ev.User%2], ev)
				}
				for i, gw := range dep.gws {
					users := make([]int, len(shards[i]))
					for j, ev := range shards[i] {
						users[j] = ev.User
					}
					if err := gw.AnnouncePresence(users, ts); err != nil {
						t.Fatalf("t=%d presence: %v", ts, err)
					}
				}
				if err := dep.co.Plan(ts); err != nil {
					t.Fatalf("t=%d plan: %v", ts, err)
				}
				upload(dep.gws[0], true, ts, shards[0])
				if ts == stream.T/2 {
					// The curator process is replaced mid-round.
					resp, err := http.Get(dep.srv.URL + "/v1/snapshot")
					if err != nil {
						t.Fatal(err)
					}
					next := serve()
					resp2, err := http.Post(next.srv.URL+"/v1/restore", "application/json", resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					resp2.Body.Close()
					if resp2.StatusCode != http.StatusNoContent {
						t.Fatalf("mid-round restore over HTTP: %s", resp2.Status)
					}
					dep = next
				}
				upload(dep.gws[1], false, ts, shards[1])
				if err := dep.co.Finalize(ts, stream.Active[ts]); err != nil {
					t.Fatalf("t=%d finalize: %v", ts, err)
				}
			}

			ledger := dep.cur.Ledger()
			rounds, reports := dep.cur.Stats()
			if ledger == nil || rounds < 2 || reports <= rounds {
				t.Fatalf("run too thin to test the ledger: rounds=%d reports=%d", rounds, reports)
			}
			for ts, eps := range ledger.EpsByT {
				if eps != epsAt[ts] {
					t.Fatalf("ledger EpsByT[%d] = %v, the round's assignments carried ε_t = %v", ts, eps, epsAt[ts])
				}
			}
			if got := ledger.MaxUserWindowSum(cfg.W, func(ts int) float64 { return epsAt[ts] }); got > cfg.Epsilon+1e-9 {
				t.Fatalf("a user spent %v inside one window, ε = %v", got, cfg.Epsilon)
			}
			if div == allocation.Budget {
				// Everyone reports every collecting round, so the per-round
				// sums bound every user's window spend.
				if got := ledger.MaxWindowSum(cfg.W); got > cfg.Epsilon+1e-9 {
					t.Fatalf("window budget sum %v exceeds ε = %v", got, cfg.Epsilon)
				}
			}
		})
	}
}
