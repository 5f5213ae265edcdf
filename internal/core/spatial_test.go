package core

import (
	"encoding/json"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

// testQuadtree grows a small density-adaptive quadtree whose hotspot sits
// in the bottom-left corner, mirroring the skew the backend exists for.
func testQuadtree(t testing.TB) *spatial.Quadtree {
	t.Helper()
	rng := ldp.NewRand(555, 556)
	pts := make([]spatial.Point, 0, 3000)
	for i := 0; i < 3000; i++ {
		if i%5 == 0 {
			pts = append(pts, spatial.Point{X: rng.Float64(), Y: rng.Float64()})
		} else {
			pts = append(pts, spatial.Point{X: rng.Float64() * 0.3, Y: rng.Float64() * 0.3})
		}
	}
	qt, err := spatial.NewQuadtree(spatial.Bounds{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, pts,
		spatial.QuadtreeOptions{MaxLeaves: 24})
	if err != nil {
		t.Fatal(err)
	}
	return qt
}

// TestQuadtreeEngineEndToEnd runs the full engine over a quadtree
// discretization: the release must be structurally valid for the tree and
// the run deterministic for a fixed seed.
func TestQuadtreeEngineEndToEnd(t *testing.T) {
	qt := testQuadtree(t)
	data := walkDataset(qt, 300, 40, 8, 31)
	run := func() uint64 {
		opts := defaultOpts(allocation.Population)
		opts.Space = qt
		opts.Seed = 777
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		syn, stats := e.Run(trajectory.NewStream(data), "qt")
		if stats.Rounds == 0 {
			t.Fatal("no collection rounds on the quadtree engine")
		}
		if err := syn.Validate(qt, true); err != nil {
			t.Fatalf("quadtree release violates reachability: %v", err)
		}
		return datasetHash(syn)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("quadtree run not deterministic: %#x vs %#x", a, b)
	}
}

// TestQuadtreeSnapshotRoundTrip proves checkpoint/restore stays
// bit-identical on the non-uniform backend too.
func TestQuadtreeSnapshotRoundTrip(t *testing.T) {
	qt := testQuadtree(t)
	data := walkDataset(qt, 250, 30, 7, 32)
	stream := trajectory.NewStream(data)
	newEngine := func() *Engine {
		opts := defaultOpts(allocation.Population)
		opts.Space = qt
		opts.Seed = 991
		e, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	full := newEngine()
	for ts := 0; ts < stream.T; ts++ {
		if _, err := full.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	want := datasetHash(full.Synthetic("qt", stream.T))

	half := stream.T / 2
	donor := newEngine()
	for ts := 0; ts < half; ts++ {
		if _, err := donor.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := donor.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	resumed := newEngine()
	if err := resumed.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	for ts := half; ts < stream.T; ts++ {
		if _, err := resumed.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	if got := datasetHash(resumed.Synthetic("qt", stream.T)); got != want {
		t.Fatalf("resumed quadtree release drifted: got %#x, want %#x", got, want)
	}
}

// TestLegacyCheckpointRestores is the compatibility regression: a checkpoint
// written by a pre-spatial uniform-grid build — whose config fingerprint has
// no "discretizer" field — must still restore bit-identically into today's
// engine. The legacy blob is simulated by stripping the field from a fresh
// snapshot, which yields byte-for-byte the JSON the old build produced
// (omitempty kept the schema otherwise unchanged).
func TestLegacyCheckpointRestores(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := testGrid()
			data := walkDataset(g, 350, 40, 9, 97)
			stream := trajectory.NewStream(data)
			newEngine := func() *Engine {
				opts := defaultOpts(allocation.Population)
				opts.Seed = 20240731
				tc.mutate(&opts)
				e, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			half := stream.T / 2
			donor := newEngine()
			for ts := 0; ts < half; ts++ {
				if _, err := donor.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := donor.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			legacy := stripDiscretizer(t, blob)

			resumed := newEngine()
			if err := resumed.RestoreState(legacy); err != nil {
				t.Fatalf("legacy uniform-grid checkpoint rejected: %v", err)
			}
			for ts := half; ts < stream.T; ts++ {
				if _, err := resumed.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
					t.Fatal(err)
				}
			}
			if got := datasetHash(resumed.Synthetic("golden", stream.T)); got != tc.want {
				t.Fatalf("legacy-restored release drifted: got %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestLegacyCheckpointRejectedOnQuadtree ensures the legacy grace path does
// not let a fingerprint-less checkpoint cross onto a different backend.
func TestLegacyCheckpointRejectedOnQuadtree(t *testing.T) {
	qt := testQuadtree(t)
	opts := defaultOpts(allocation.Population)
	opts.Space = qt
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := e.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	legacy := stripDiscretizer(t, blob)
	e2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.RestoreState(legacy); err == nil {
		t.Fatal("fingerprint-less checkpoint accepted by a quadtree engine")
	}
}

// TestSnapshotDiscretizerMismatch ensures checkpoints cannot cross between
// discretizations even when the domain size happens to match.
func TestSnapshotDiscretizerMismatch(t *testing.T) {
	a := testGrid()
	b, err := New(func() Options {
		o := defaultOpts(allocation.Population)
		o.Space = a
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Same K, different bounds: identical domain size, different layout.
	other := defaultOpts(allocation.Population)
	other.Space = grid.MustNew(4, spatial.Bounds{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2})
	e2, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(st); err == nil {
		t.Fatal("checkpoint restored across different discretizations")
	}
}

func stripDiscretizer(t *testing.T, blob json.RawMessage) json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	var cfg map[string]json.RawMessage
	if err := json.Unmarshal(m["config"], &cfg); err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg["discretizer"]; !ok {
		t.Fatal("snapshot config missing the discretizer field to strip")
	}
	delete(cfg, "discretizer")
	cb, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m["config"] = cb
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
