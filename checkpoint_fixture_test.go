package retrasyn

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// fixturePath is a facade checkpoint written by the commit *before* the
// engine's round was split into its Plan/Close halves and the curator rebuilt
// on top of them. Restoring it pins that the engine checkpoint schema did not
// change with that refactor. RETRASYN_WRITE_FIXTURE=1 rewrites it from the
// code under test — only do that to deliberately re-baseline the format.
const fixturePath = "testdata/facade_checkpoint_parent.json"

// fixtureContinuedRelease pins the release continued from the fixture. The
// fixture holds the first half's draws as its writing commit made them, so
// the continuation cannot equal an uninterrupted run of code whose draws
// have changed since; it is pinned instead.
const fixtureContinuedRelease uint64 = 0x8ef078c6ee736911

// TestRestoreParentCheckpointFixture restores the committed checkpoint (two
// shards, population division, taken at T/2) and requires that the restored
// framework snapshots back to exactly the decoded fixture, that continuing
// from the fixture equals continuing from an encode → decode → restore of that
// snapshot, and that the continued release hashes to a pinned constant.
func TestRestoreParentCheckpointFixture(t *testing.T) {
	orig, g := smallDataset(t)
	events, active := NewStreamEvents(orig)
	opts := Options{
		Grid:     g,
		Epsilon:  1.0,
		Window:   5,
		Division: PopulationDivision,
		Lambda:   orig.Stats().AvgLength,
		Shards:   2,
		Seed:     23,
	}
	half := orig.T / 2
	feed := func(fw *Framework, from, to int) {
		t.Helper()
		for ts := from; ts < to; ts++ {
			if err := fw.ProcessTimestamp(events[ts], active[ts]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if os.Getenv("RETRASYN_WRITE_FIXTURE") != "" {
		fw, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		feed(fw, 0, half)
		cp, err := fw.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	blob, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(opts, cp)
	if err != nil {
		t.Fatalf("parent-written checkpoint rejected: %v", err)
	}
	if resumed.Timestamp() != half {
		t.Fatalf("restored at t=%d, want %d", resumed.Timestamp(), half)
	}
	snap, err := resumed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, cp) {
		t.Fatal("restored framework does not snapshot back to the fixture")
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Restore(opts, decoded)
	if err != nil {
		t.Fatal(err)
	}

	feed(resumed, half, orig.T)
	feed(again, half, orig.T)
	if !equalDatasets(resumed.Synthetic("syn"), again.Synthetic("syn")) {
		t.Fatal("continuing from the fixture differs from continuing from its re-encoded snapshot")
	}
	if got := datasetFingerprint(resumed.Synthetic("syn")); got != fixtureContinuedRelease {
		t.Fatalf("release continued from the fixture drifted: got %#x, want %#x", got, fixtureContinuedRelease)
	}
}
