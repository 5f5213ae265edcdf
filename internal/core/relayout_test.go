package core

import (
	"math"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/ldp"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

// cloneLayout rebuilds a layout-identical copy of a quadtree through the
// split-mask codec — a distinct object with an equal fingerprint, exactly
// what "migrating to an identical layout" means.
func cloneLayout(t *testing.T, q *spatial.Quadtree) *spatial.Quadtree {
	t.Helper()
	c, err := spatial.NewQuadtreeFromSplits(q.Bounds(), q.SplitMask())
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != q.Fingerprint() {
		t.Fatalf("clone fingerprint drifted")
	}
	return c
}

// shiftedQuadtree grows a tree whose hotspot sits in the opposite corner of
// the test quadtree's, giving migrations a genuinely different target.
func shiftedQuadtree(t *testing.T) *spatial.Quadtree {
	t.Helper()
	rng := ldp.NewRand(991, 992)
	pts := make([]spatial.Point, 0, 3000)
	for i := 0; i < 3000; i++ {
		if i%5 == 0 {
			pts = append(pts, spatial.Point{X: rng.Float64(), Y: rng.Float64()})
		} else {
			pts = append(pts, spatial.Point{X: 0.7 + rng.Float64()*0.3, Y: 0.7 + rng.Float64()*0.3})
		}
	}
	qt, err := spatial.NewQuadtree(spatial.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, pts,
		spatial.QuadtreeOptions{MaxLeaves: 28})
	if err != nil {
		t.Fatal(err)
	}
	return qt
}

// TestRelayoutIdenticalLayoutIsBitIdentical is the golden migration
// invariant: migrating mid-stream onto a layout-identical discretizer leaves
// the release bit-identical to a run that never migrated — the overlap
// matrix is exactly the identity, so nothing in the randomness stream or the
// state vectors may move.
func TestRelayoutIdenticalLayoutIsBitIdentical(t *testing.T) {
	qt := testQuadtree(t)
	data := walkDataset(qt, 300, 40, 8, 53)
	stream := trajectory.NewStream(data)
	for _, div := range []allocation.Division{allocation.Population, allocation.Budget} {
		run := func(migrateAt int) uint64 {
			opts := defaultOpts(div)
			opts.Space = qt
			opts.Seed = 4242
			e, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			for ts := 0; ts < stream.T; ts++ {
				if migrateAt == ts {
					if err := e.Relayout(cloneLayout(t, qt)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := e.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
					t.Fatal(err)
				}
			}
			return datasetHash(e.Synthetic("golden", stream.T))
		}
		plain := run(-1)
		migrated := run(stream.T / 2)
		if plain != migrated {
			t.Fatalf("division %v: identity migration drifted the release: %#x ≠ %#x", div, migrated, plain)
		}
	}
}

// TestRelayoutMigratesModelMass pins that a real cross-layout migration
// conserves the mobility model's total mass within 1e-9 and leaves the
// engine fully functional on the new domain.
func TestRelayoutMigratesModelMass(t *testing.T) {
	qt := testQuadtree(t)
	target := shiftedQuadtree(t)
	data := walkDataset(qt, 300, 40, 8, 54)
	stream := trajectory.NewStream(data)
	opts := defaultOpts(allocation.Population)
	opts.Space = qt
	opts.Seed = 7
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	half := stream.T / 2
	for ts := 0; ts < half; ts++ {
		if _, err := e.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	before := 0.0
	for _, f := range e.Model().Freqs() {
		before += f
	}
	if err := e.Relayout(target); err != nil {
		t.Fatal(err)
	}
	if e.Generation() != 1 {
		t.Fatalf("generation = %d after one migration", e.Generation())
	}
	if e.Space().Fingerprint() != target.Fingerprint() {
		t.Fatal("engine space did not switch")
	}
	if e.Domain().Space().Fingerprint() != target.Fingerprint() {
		t.Fatal("transition domain did not switch")
	}
	after := 0.0
	for _, f := range e.Model().Freqs() {
		after += f
	}
	if math.Abs(after-before) > 1e-9 {
		t.Fatalf("model mass not conserved across migration: %v → %v", before, after)
	}
	// The migrated engine keeps processing; events are re-discretized by the
	// caller in production, here the walk cells of the old tree are remapped
	// by feeding a fresh walk over the new tree's cells.
	tail := trajectory.NewStream(walkDataset(target, 300, stream.T, 8, 55))
	for ts := half; ts < tail.T; ts++ {
		if _, err := e.ProcessTimestamp(ts, tail.At(ts), tail.Active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	syn := e.Synthetic("migrated", tail.T)
	if err := syn.Validate(target, true); err != nil {
		t.Fatalf("post-migration release violates the new layout: %v", err)
	}
	if e.Stats().Relayouts != 1 {
		t.Fatalf("stats recorded %d relayouts, want 1", e.Stats().Relayouts)
	}
}

// TestRelayoutSnapshotRoundTrip pins checkpointing across migrations: an
// engine snapshotted AFTER a cross-layout migration restores into a fresh
// engine built with the boot options, and both continue bit-identically.
func TestRelayoutSnapshotRoundTrip(t *testing.T) {
	qt := testQuadtree(t)
	target := shiftedQuadtree(t)
	dataA := walkDataset(qt, 250, 30, 7, 61)
	streamA := trajectory.NewStream(dataA)
	dataB := walkDataset(target, 250, 30, 7, 62)
	streamB := trajectory.NewStream(dataB)

	newEngine := func() *Engine {
		opts := defaultOpts(allocation.Population)
		opts.Space = qt
		opts.Seed = 333
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	first := newEngine()
	half := streamA.T / 2
	for ts := 0; ts < half; ts++ {
		if _, err := first.ProcessTimestamp(ts, streamA.At(ts), streamA.Active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Relayout(target); err != nil {
		t.Fatal(err)
	}
	blob, err := first.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for ts := half; ts < streamB.T; ts++ {
		if _, err := first.ProcessTimestamp(ts, streamB.At(ts), streamB.Active[ts]); err != nil {
			t.Fatal(err)
		}
	}

	resumed := newEngine()
	if err := resumed.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if resumed.Generation() != 1 || resumed.Space().Fingerprint() != target.Fingerprint() {
		t.Fatalf("restore did not adopt the migrated layout (gen %d)", resumed.Generation())
	}
	for ts := half; ts < streamB.T; ts++ {
		if _, err := resumed.ProcessTimestamp(ts, streamB.At(ts), streamB.Active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	want := datasetHash(first.Synthetic("x", streamB.T))
	got := datasetHash(resumed.Synthetic("x", streamB.T))
	if got != want {
		t.Fatalf("resumed release drifted across the migrated checkpoint: %#x ≠ %#x", got, want)
	}

	// A pre-migration snapshot restores into an engine that already migrated
	// (rolling back onto the boot layout).
	preBlob := func() []byte {
		e := newEngine()
		for ts := 0; ts < half; ts++ {
			if _, err := e.ProcessTimestamp(ts, streamA.At(ts), streamA.Active[ts]); err != nil {
				t.Fatal(err)
			}
		}
		b, err := e.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}()
	rolled := newEngine()
	if err := rolled.Relayout(target); err != nil {
		t.Fatal(err)
	}
	if err := rolled.RestoreState(preBlob); err != nil {
		t.Fatal(err)
	}
	if rolled.Generation() != 0 || rolled.Space().Fingerprint() != qt.Fingerprint() {
		t.Fatal("restore of a generation-0 snapshot did not roll back to the boot layout")
	}
}
