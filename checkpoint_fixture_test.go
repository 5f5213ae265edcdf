package retrasyn

import (
	"bytes"
	"os"
	"testing"
)

// fixturePath is a facade checkpoint written by the commit *before* the
// engine's round was split into its Plan/Close halves and the curator rebuilt
// on top of them. Restoring it pins that the engine checkpoint schema did not
// change with that refactor. RETRASYN_WRITE_FIXTURE=1 rewrites it from the
// code under test — only do that to deliberately re-baseline the format.
const fixturePath = "testdata/facade_checkpoint_parent.json"

// TestRestoreParentCheckpointFixture restores the committed checkpoint (two
// shards, population division, taken at T/2) and requires the continued
// release to be bit-identical to an uninterrupted run of today's code.
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
	uninterrupted, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(uninterrupted, 0, half)
	if os.Getenv("RETRASYN_WRITE_FIXTURE") != "" {
		cp, err := uninterrupted.Snapshot()
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
	feed(uninterrupted, half, orig.T)

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
	feed(resumed, half, orig.T)
	if !equalDatasets(resumed.Synthetic("syn"), uninterrupted.Synthetic("syn")) {
		t.Fatal("release resumed from the parent-written checkpoint differs from the uninterrupted run")
	}
}
