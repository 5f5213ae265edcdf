package core

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/trajectory"
)

// Golden-output pins: the staged-pipeline refactor must keep the engine
// bit-identical to the seed implementation — same seed, same stream, same
// synthetic release. These hashes were captured from the pre-pipeline
// monolithic engine; any drift in the per-timestamp randomness order or the
// estimate arithmetic shows up here immediately.

// datasetHash canonically hashes a synthetic release: stream count, then
// every (start, cells...) in released order.
func datasetHash(d *trajectory.Dataset) uint64 {
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

func goldenRun(t *testing.T, mutate func(*Options)) uint64 {
	t.Helper()
	g := testGrid()
	data := walkDataset(g, 350, 40, 9, 97)
	stream := trajectory.NewStream(data)
	opts := defaultOpts(allocation.Population)
	opts.Seed = 20240731
	if mutate != nil {
		mutate(&opts)
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	syn, _ := e.Run(stream, "golden")
	return datasetHash(syn)
}

// goldenCases enumerates the engine configurations pinned by the golden
// hashes; the snapshot round-trip test reuses them so checkpoint/restore is
// proven bit-identical for both oracle modes, both divisions and every
// ablation path.
func goldenCases() []struct {
	name   string
	mutate func(*Options)
	want   uint64
} {
	return []struct {
		name   string
		mutate func(*Options)
		want   uint64
	}{
		{"population-aggregate", func(o *Options) { o.OracleMode = Aggregate }, 0xd8543d7967b76224},
		{"budget-aggregate", func(o *Options) {
			o.Division = allocation.Budget
			o.OracleMode = Aggregate
		}, 0xd9685253a3f68673},
		{"population-peruser", func(o *Options) { o.OracleMode = PerUser }, 0xe3bb31981e50e88a},
		{"budget-peruser", func(o *Options) {
			o.Division = allocation.Budget
			o.OracleMode = PerUser
		}, 0x55ebee9bb11dbb57},
		{"allupdate", func(o *Options) { o.DisableDMU = true }, 0x9245340888ee5aba},
		{"noeq", func(o *Options) {
			o.DisableEQ = true
			o.Lambda = 0
		}, 0x596050d5febcdc06},
	}
}

func TestGoldenSeedEquivalence(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenRun(t, tc.mutate)
			if tc.want == 0 {
				t.Logf("golden[%s] = %#x", tc.name, got)
				t.Fatal("golden hash not pinned yet")
			}
			if got != tc.want {
				t.Fatalf("synthetic release drifted from the seed engine: got %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestGoldenSnapshotRoundTrip pins the checkpoint/restore contract against
// the same golden hashes: run to T/2, snapshot, serialize the state through
// JSON, restore into a *fresh* engine, continue to T — the release must be
// bit-identical to the uninterrupted golden run for every configuration.
func TestGoldenSnapshotRoundTrip(t *testing.T) {
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
			first := newEngine()
			for ts := 0; ts < half; ts++ {
				if _, err := first.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
					t.Fatal(err)
				}
			}
			// Serialize through the opaque JSON blob, exactly as a curator
			// writing a checkpoint file would.
			blob, err := first.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			// Keep feeding the first engine: the snapshot must be immune to
			// the donor's later mutations.
			for ts := half; ts < stream.T; ts++ {
				if _, err := first.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
					t.Fatal(err)
				}
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

			got := datasetHash(resumed.Synthetic("golden", stream.T))
			if got != tc.want {
				t.Fatalf("resumed release drifted from the uninterrupted run: got %#x, want %#x", got, tc.want)
			}
			if again := datasetHash(first.Synthetic("golden", stream.T)); again != tc.want {
				t.Fatalf("donor engine drifted after being snapshotted: got %#x, want %#x", again, tc.want)
			}
		})
	}
}

// TestSnapshotConfigMismatch ensures a checkpoint cannot be restored into an
// engine built with incompatible options.
func TestSnapshotConfigMismatch(t *testing.T) {
	opts := defaultOpts(allocation.Population)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := opts
	other.Epsilon = 2.0
	e2, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(st); err == nil {
		t.Fatal("restore across mismatched configs accepted")
	}
	st.Version = EngineStateVersion + 1
	e3, _ := New(opts)
	if err := e3.Restore(st); err == nil {
		t.Fatal("restore of future snapshot version accepted")
	}
}

// TestSnapshotRetiredOracleRejected pins the retired ConfigFingerprint.Oracle
// guard: a checkpoint written by an OLH (1) or GRR (2) engine must not
// restore into an engine, which collects with OUE only.
func TestSnapshotRetiredOracleRejected(t *testing.T) {
	opts := defaultOpts(allocation.Population)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Config.Oracle != 0 {
		t.Fatalf("snapshot oracle = %d, want 0", st.Config.Oracle)
	}
	for _, retired := range []int{1, 2} {
		st.Config.Oracle = retired
		e2, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		err = e2.Restore(st)
		if err == nil || !strings.Contains(err.Error(), "does not match engine config") {
			t.Fatalf("oracle %d: Restore error = %v, want config mismatch", retired, err)
		}
	}
}

// TestSnapshotRetiredSynthWorkers pins the retired
// ConfigFingerprint.SynthWorkers guard: a checkpoint whose release came from
// the retired parallel synthesis step (more than one worker) must not
// restore, while 0 and 1 — both of which ran the serial step — do.
func TestSnapshotRetiredSynthWorkers(t *testing.T) {
	opts := defaultOpts(allocation.Population)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Config.SynthWorkers != 0 {
		t.Fatalf("snapshot synth_workers = %d, want 0", st.Config.SynthWorkers)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		st.Config.SynthWorkers = workers
		e2, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		err = e2.Restore(st)
		switch {
		case workers <= 1 && err != nil:
			t.Fatalf("synth_workers %d: Restore error = %v, want success", workers, err)
		case workers > 1 && (err == nil || !strings.Contains(err.Error(), "does not match engine config")):
			t.Fatalf("synth_workers %d: Restore error = %v, want config mismatch", workers, err)
		}
	}
}
