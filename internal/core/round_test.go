package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
)

// Tests of the round's two halves used directly, the way a driver whose
// reports come from elsewhere (internal/remote.Curator) uses them.

func stateBlob(t *testing.T, e *Engine) []byte {
	t.Helper()
	blob, err := e.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func planIDs(e *Engine, t int, ids []int) ([]int, OpenRound, error) {
	return Plan(e, t, ids, func(id int) int { return id }, nil, nil)
}

// TestRoundHalvesMisuse: every out-of-order use of Plan, Close and Relayout
// returns an error and leaves the engine's state exactly as it was.
func TestRoundHalvesMisuse(t *testing.T) {
	e, err := New(defaultOpts(allocation.Population))
	if err != nil {
		t.Fatal(err)
	}
	users := []int{1, 2, 3, 4, 5, 6}
	unchanged := func(what string, before []byte) {
		t.Helper()
		if !bytes.Equal(before, stateBlob(t, e)) {
			t.Fatalf("%s changed the engine's state", what)
		}
	}

	idle := stateBlob(t, e)
	if _, err := e.Close(0, Collected{}, 0); err == nil {
		t.Fatal("Close without Plan accepted")
	}
	unchanged("Close without Plan", idle)

	sampled, round, err := planIDs(e, 0, users)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled) == 0 || round.Sampled != len(sampled) || round.Pool != len(users) || !(round.Epsilon > 0) {
		t.Fatalf("bootstrap round sampled %v with plan %+v", sampled, round)
	}
	if got, ok := e.Open(); !ok || got != round {
		t.Fatalf("Open() = %+v, %v after Plan returned %+v", got, ok, round)
	}
	open := stateBlob(t, e)
	if _, _, err := planIDs(e, 1, users); err == nil {
		t.Fatal("Plan while a round is open accepted")
	}
	unchanged("Plan while a round is open", open)
	if _, err := e.Close(1, Collected{}, 0); err == nil {
		t.Fatal("Close for another timestamp accepted")
	}
	unchanged("Close for another timestamp", open)
	if err := e.Relayout(grid.MustNew(4, testGrid().Bounds())); err == nil {
		t.Fatal("Relayout with a round open accepted")
	}
	unchanged("Relayout with a round open", open)

	// A sampled-but-silent round closes the timestamp and spends nothing.
	res, err := e.Close(0, Collected{}, len(users))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reported || e.Stats().Rounds != 0 {
		t.Fatalf("a round nobody reported in counted as a collection: %+v", res)
	}
	if _, ok := e.Open(); ok {
		t.Fatal("round still open after Close")
	}
	closed := stateBlob(t, e)
	for _, past := range []int{0, -1} {
		if _, _, err := planIDs(e, past, users); err == nil {
			t.Fatalf("Plan(%d) after timestamp 0 accepted", past)
		}
	}
	unchanged("Plan for a closed timestamp", closed)
}

// TestOpenRoundSurvivesCheckpoint: an engine snapshotted between Plan and
// Close restores with the round still open, finishes it, and from then on
// matches the engine that was never interrupted — sampled-but-silent users
// included, who must stay active and unspent.
func TestOpenRoundSurvivesCheckpoint(t *testing.T) {
	opts := defaultOpts(allocation.Population)
	newEngine := func() *Engine {
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		e.EnableLedger(8)
		return e
	}
	users := make([]int, 60)
	for i := range users {
		users[i] = i
	}
	// finish folds a report for every second sampled user and closes.
	finish := func(e *Engine, ts int, sampled []int, eps float64) {
		t.Helper()
		oracle := ldp.MustOUE(e.Domain().Size(), eps)
		agg := ldp.NewAggregator(oracle)
		rng := ldp.NewRand(uint64(ts), 77)
		var folded []int
		for i, id := range sampled {
			if i%2 == 0 {
				agg.Add(oracle.Perturb(rng, id%e.Domain().Size()))
				folded = append(folded, id)
			}
		}
		col := Collected{Aggregate: agg, ErrUpd: oracle.Variance(agg.N()), Reporters: folded}
		if _, err := e.Close(ts, col, len(users)); err != nil {
			t.Fatal(err)
		}
	}
	straight, donor := newEngine(), newEngine()
	var resumed *Engine
	for ts := 0; ts < 8; ts++ {
		s1, r1, err := planIDs(straight, ts, users)
		if err != nil {
			t.Fatal(err)
		}
		other := donor
		if resumed != nil {
			other = resumed
		}
		s2, r2, err := planIDs(other, ts, users)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 || len(s1) != len(s2) {
			t.Fatalf("t=%d: plans diverged: %+v vs %+v", ts, r1, r2)
		}
		if ts == 3 {
			blob := stateBlob(t, donor)
			var st EngineState
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			if st.Open == nil || *st.Open != r2 {
				t.Fatalf("mid-round snapshot carries open round %+v, want %+v", st.Open, r2)
			}
			resumed = newEngine()
			if err := resumed.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			other = resumed
		}
		finish(straight, ts, s1, r1.Epsilon)
		finish(other, ts, s2, r2.Epsilon)
	}
	if datasetHash(straight.Synthetic("a", 8)) != datasetHash(resumed.Synthetic("a", 8)) {
		t.Fatal("engine restored mid-round released a different stream")
	}
	a, b := straight.Stats(), resumed.Stats()
	a.Timings, b.Timings = ComponentTimings{}, ComponentTimings{} // wall clock
	if a != b {
		t.Fatalf("stats diverged after a mid-round restore: %+v vs %+v", a, b)
	}
	if got := resumed.Ledger().MaxUserWindowSum(opts.W, func(int) float64 { return opts.Epsilon }); got > opts.Epsilon+1e-9 {
		t.Fatalf("a user spent %v inside one window", got)
	}
}

// TestRelayoutAllIdentityMigration migrates a fleet of engines onto a
// layout-identical grid between two timestamps: every engine switches, each
// counts one relayout, and the releases stay bit-identical to a fleet that
// never migrated.
func TestRelayoutAllIdentityMigration(t *testing.T) {
	g := testGrid()
	stream := trajectory.NewStream(walkDataset(g, 200, 20, 7, 31))
	run := func(migrate bool) []uint64 {
		fleet := make([]*Engine, 3)
		for i := range fleet {
			opts := defaultOpts(allocation.Population)
			opts.Seed = uint64(100 + i)
			e, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			fleet[i] = e
		}
		for ts := 0; ts < stream.T; ts++ {
			if migrate && ts == stream.T/2 {
				if err := RelayoutAll(fleet, grid.MustNew(4, g.Bounds())); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range fleet {
				if _, err := e.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
					t.Fatal(err)
				}
			}
		}
		hashes := make([]uint64, len(fleet))
		for i, e := range fleet {
			if want := map[bool]int{false: 0, true: 1}[migrate]; e.Generation() != want || e.Stats().Relayouts != want {
				t.Fatalf("engine %d: generation %d, relayouts %d, want %d", i, e.Generation(), e.Stats().Relayouts, want)
			}
			hashes[i] = datasetHash(e.Synthetic("fleet", stream.T))
		}
		return hashes
	}
	plain, migrated := run(false), run(true)
	for i := range plain {
		if plain[i] != migrated[i] {
			t.Fatalf("identity migration changed engine %d's release", i)
		}
	}
}
