package retrasyn

// End-to-end tests of online adaptive re-discretization through the public
// facade: the framework sketches its own released stream, rebuilds the
// quadtree at window boundaries, and migrates every engine shard atomically
// between timestamps.

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
)

// datasetFingerprint canonically hashes a release (stream count, then every
// start and cell in released order).
func datasetFingerprint(d *Dataset) uint64 {
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

// driftingRaw generates a compact drifting-hotspot stream for the facade
// tests: the hotspot crosses the space within T timestamps.
func driftingRaw(t *testing.T, T int, seed uint64) *RawDataset {
	t.Helper()
	raw, err := GenerateDriftingHotspot(DriftConfig{
		T:             T,
		InitialUsers:  4000,
		ArrivalsPerTs: 300,
		MeanLength:    10,
		HotspotShare:  0.85,
		MaxX:          32, MaxY: 32,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// bootQuadtree grows the boot layout from the stream's opening window only —
// the historical sketch that goes stale as the hotspot drifts.
func bootQuadtree(t *testing.T, raw *RawDataset, warmup int) *Quadtree {
	t.Helper()
	var pts []Point
	for _, tr := range raw.Trajs {
		if tr.Start >= warmup {
			continue
		}
		for i, p := range tr.Points {
			if tr.Start+i >= warmup {
				break
			}
			pts = append(pts, Point{X: p.X, Y: p.Y})
		}
	}
	qt, err := NewQuadtree(Bounds{MaxX: 32, MaxY: 32}, pts, QuadtreeOptions{MaxLeaves: 24, MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	return qt
}

func adaptiveOptions(boot *Quadtree, shards int) Options {
	return Options{
		Discretizer: boot,
		Epsilon:     2.0,
		Window:      5,
		// Whole-window rounds give the mobility model a clean drift signal
		// at this (test-sized) population.
		Strategy:          StrategySample,
		Lambda:            10,
		Shards:            shards,
		RediscretizeEvery: 2,
		RelayoutThreshold: 0.05,
		Seed:              20240715,
	}
}

// TestFrameworkAdaptiveRelayoutEndToEnd drives the whole loop: the drifting
// workload must trigger at least one migration, the release must be
// structurally valid in the final layout, and equal seeds must reproduce the
// run (including every migration decision).
func TestFrameworkAdaptiveRelayoutEndToEnd(t *testing.T) {
	raw := driftingRaw(t, 40, 11)
	boot := bootQuadtree(t, raw, 8)
	run := func() (*Dataset, Discretizer, int, RunStats) {
		fw, err := New(adaptiveOptions(boot, 1))
		if err != nil {
			t.Fatal(err)
		}
		syn, stats, err := fw.RunAdaptive(raw)
		if err != nil {
			t.Fatal(err)
		}
		return syn, fw.Space(), fw.LayoutGeneration(), stats
	}
	syn, space, gen, stats := run()
	if gen < 1 {
		t.Fatalf("drifting workload triggered no migration (generation %d)", gen)
	}
	if stats.Relayouts != gen {
		t.Fatalf("stats recorded %d relayouts, engines at generation %d", stats.Relayouts, gen)
	}
	if space.Fingerprint() == boot.Fingerprint() {
		t.Fatal("final layout equals the boot layout despite migrations")
	}
	// Cells of the coherent release must all exist in the final layout
	// (adjacency of pre-migration history may legally break at remapping).
	if err := syn.Validate(space, false); err != nil {
		t.Fatalf("release invalid in the final layout: %v", err)
	}
	syn2, space2, gen2, _ := run()
	if gen2 != gen || space2.Fingerprint() != space.Fingerprint() {
		t.Fatalf("adaptive run not deterministic: gen %d/%d, layouts %s vs %s",
			gen, gen2, space.Fingerprint(), space2.Fingerprint())
	}
	if datasetFingerprint(syn) != datasetFingerprint(syn2) {
		t.Fatal("adaptive releases differ across identical runs")
	}
}

// TestFrameworkAdaptiveSharded proves the coordinator-wide migration
// barrier: with Shards > 1 every engine migrates in lockstep between
// timestamps, and the run stays deterministic.
func TestFrameworkAdaptiveSharded(t *testing.T) {
	raw := driftingRaw(t, 36, 17)
	boot := bootQuadtree(t, raw, 8)
	run := func() (int, string, uint64) {
		fw, err := New(adaptiveOptions(boot, 3))
		if err != nil {
			t.Fatal(err)
		}
		syn, _, err := fw.RunAdaptive(raw)
		if err != nil {
			t.Fatal(err)
		}
		return fw.LayoutGeneration(), fw.Space().Fingerprint(), datasetFingerprint(syn)
	}
	gen, fp, synFP := run()
	if gen < 1 {
		t.Fatalf("sharded drifting workload triggered no migration")
	}
	gen2, fp2, synFP2 := run()
	if gen != gen2 || fp != fp2 || synFP != synFP2 {
		t.Fatal("sharded adaptive run not deterministic")
	}
}

// TestFrameworkAdaptiveCheckpointRoundTrip pins checkpointing across
// migrations at the facade level: snapshot after a migration (controller
// sketch included), serialize through JSON, restore, and continue — the
// releases and all future rebuild decisions must match the uninterrupted
// run exactly. Runs on both the single-engine and the sharded path.
func TestFrameworkAdaptiveCheckpointRoundTrip(t *testing.T) {
	raw := driftingRaw(t, 44, 23)
	boot := bootQuadtree(t, raw, 8)
	for _, shards := range []int{1, 2} {
		opts := adaptiveOptions(boot, shards)
		stream := func(fw *Framework) *trajectory.Stream {
			return trajectory.NewStream(trajectory.Discretize(raw, fw.Space(), trajectory.DiscretizeOptions{}))
		}
		feed := func(fw *Framework, s *trajectory.Stream, from, to int) *trajectory.Stream {
			for ts := from; ts < to; ts++ {
				gen := fw.LayoutGeneration()
				if err := fw.ProcessTimestamp(s.Events[ts], s.Active[ts]); err != nil {
					t.Fatal(err)
				}
				if fw.LayoutGeneration() != gen {
					s = stream(fw)
				}
			}
			return s
		}

		full, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		s := stream(full)
		// Checkpoint at the first t ≥ 32 (past several rebuild boundaries,
		// Every×W = 10) that follows a migration.
		half := 32
		s = feed(full, s, 0, half)
		for full.LayoutGeneration() < 1 {
			if half >= 40 {
				t.Fatalf("shards=%d: no migration by t=40", shards)
			}
			s = feed(full, s, half, half+1)
			half++
		}
		cp, err := full.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		feed(full, s, half, 44)

		decoded, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := Restore(opts, decoded)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.LayoutGeneration() != full.LayoutGeneration() && resumed.Space().Fingerprint() == boot.Fingerprint() {
			t.Fatalf("shards=%d: restore lost the migrated layout", shards)
		}
		rs := stream(resumed)
		feed(resumed, rs, half, 44)

		want := datasetFingerprint(full.Synthetic("cp"))
		got := datasetFingerprint(resumed.Synthetic("cp"))
		if got != want {
			t.Fatalf("shards=%d: resumed release drifted across the migrated checkpoint", shards)
		}
		if resumed.LayoutGeneration() != full.LayoutGeneration() {
			t.Fatalf("shards=%d: resumed generation %d ≠ %d", shards, resumed.LayoutGeneration(), full.LayoutGeneration())
		}
	}
}

// TestRunRejectsAdaptive pins the guard: pre-discretized replay is refused
// when re-discretization is on, pointing at RunAdaptive.
func TestRunRejectsAdaptive(t *testing.T) {
	raw := driftingRaw(t, 12, 31)
	boot := bootQuadtree(t, raw, 6)
	fw, err := New(adaptiveOptions(boot, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fw.Run(Discretize(raw, boot)); err == nil {
		t.Fatal("Run accepted a pre-discretized replay under RediscretizeEvery")
	}
	fw2, err := New(Options{Discretizer: boot, Epsilon: 1, Window: 5, Lambda: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fw2.RunAdaptive(raw); err == nil {
		t.Fatal("RunAdaptive accepted a frozen-layout framework")
	}
}

// TestSyntheticSurvivesRelayoutAndLaterRounds pins that a release, once
// handed out, never changes: neither a later migration (which remaps the
// engine's history into the new layout) nor later rounds may rewrite it.
func TestSyntheticSurvivesRelayoutAndLaterRounds(t *testing.T) {
	b := Bounds{MaxX: 30, MaxY: 30}
	g, err := NewGrid(6, b)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Options{Grid: g, Epsilon: 1, Window: 5, Lambda: 4, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	rng := ldp.NewRand(5, 6)
	const users = 400
	round := func() {
		t.Helper()
		sp := fw.Space()
		events := make([]Event, users)
		for i := range events {
			c := Cell(rng.IntN(sp.NumCells()))
			ns := sp.Neighbors(c)
			events[i] = Event{User: i, State: MoveState(c, ns[rng.IntN(len(ns))])}
		}
		if err := fw.ProcessTimestamp(events, users); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	rel := fw.Synthetic("before")
	want := datasetFingerprint(rel)

	pts := make([]Point, 2000)
	for i := range pts {
		pts[i] = Point{X: 30 * rng.Float64() * rng.Float64(), Y: 30 * rng.Float64()}
	}
	qt, err := NewQuadtree(b, pts, QuadtreeOptions{MaxLeaves: 16, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Relayout(qt); err != nil {
		t.Fatal(err)
	}
	if remapped := fw.Synthetic("remapped"); datasetFingerprint(remapped) == want {
		t.Fatal("migration remapped no released cell; the test checks nothing")
	}
	if got := datasetFingerprint(rel); got != want {
		t.Fatal("a migration rewrote a release handed out before it")
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if got := datasetFingerprint(rel); got != want {
		t.Fatal("later rounds rewrote a release handed out before them")
	}
}
