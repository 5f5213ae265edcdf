package retrasyn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"retrasyn/internal/monitor"
	"retrasyn/internal/trajectory"
)

// TestFrameworkMonitorGolden pins what the utility monitor *saw*, not only
// what the engines released: the hash of the per-round (computed, L1, JS,
// alarms) series of a fixed-seed two-shard run with one forced relayout onto
// a uniform grid mid-run and the periodic quadtree rebuilds after it. The hash
// was recorded on the commit before the release sketch became an incremental
// fold, so the folded view, the spread sequence and the reused observation
// buffers must all reproduce the window-rescan numbers bit for bit.
func TestFrameworkMonitorGolden(t *testing.T) {
	const want uint64 = 0x01aac36187ccde71
	raw := driftingRaw(t, 40, 11)
	o := adaptiveOptions(bootQuadtree(t, raw, 8), 2)
	o.Strategy = StrategyUniform // a divergence sample every timestamp
	o.MonitorWindow = 5
	fw, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	discretize := func() *trajectory.Stream {
		return trajectory.NewStream(trajectory.Discretize(raw, fw.Space(), trajectory.DiscretizeOptions{}))
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	stream := discretize()
	computed := 0
	for ts := 0; ts < stream.T; ts++ {
		if ts == 17 {
			g, err := NewGrid(5, Bounds{MaxX: 32, MaxY: 32})
			if err != nil {
				t.Fatal(err)
			}
			if err := fw.Relayout(g); err != nil {
				t.Fatal(err)
			}
			stream = discretize()
		}
		gen := fw.LayoutGeneration()
		if err := fw.ProcessTimestamp(stream.At(ts), stream.Active[ts]); err != nil {
			t.Fatal(err)
		}
		if fw.LayoutGeneration() != gen {
			stream = discretize()
		}
		hl := fw.Health()
		if hl.DivergenceT == ts {
			computed++
			put(1)
			put(math.Float64bits(hl.DivergenceL1))
			put(math.Float64bits(hl.DivergenceJS))
		} else {
			put(0)
		}
		for i, s := range []string{monitor.SignalDivergence, monitor.SignalSigRatio, monitor.SignalErrors} {
			if hl.Signals[s].Status == "alarm" {
				put(uint64(i + 1))
			}
		}
	}
	if computed < stream.T/2 || fw.LayoutGeneration() < 2 {
		t.Fatalf("golden run too quiet to pin anything: %d divergence samples, generation %d", computed, fw.LayoutGeneration())
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("monitor series drifted: got %#x, want %#x", got, want)
	}
}
