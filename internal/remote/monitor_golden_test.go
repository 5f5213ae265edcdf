package remote

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/ldp"
	"retrasyn/internal/monitor"
)

// TestCuratorMonitorGolden pins what the curator's utility monitor saw on a
// direct-drive run: the hash of the per-round (computed, L1, JS, alarms)
// series over a fixed-seed stream, with one forced relayout (grid → rebuilt
// quadtree) mid-run after which devices re-encode against the new layout. The
// hash was recorded on the commit before the release sketch became an
// incremental fold (see TestFrameworkMonitorGolden at the module root).
func TestCuratorMonitorGolden(t *testing.T) {
	const want uint64 = 0x14d298487fd28460
	cfg := goldenConfig(allocation.Population)
	cfg.Strategy = core.StrategyUniform
	cfg.MonitorWindow = 4
	cur, err := NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const T = 40
	stream := walkStream(cur.Domain().Space(), 350, T, 9, 97)
	rng := ldp.NewRand(5, 8)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	computed := 0
	for ts := 0; ts < T; ts++ {
		if ts == 18 {
			st, err := cur.Relayout(true)
			if err != nil || !st.Switched {
				t.Fatalf("forced relayout: switched=%v err=%v", st.Switched, err)
			}
			// A fresh population on the new layout; ids continue past the old
			// ones so nobody re-appears after quitting.
			next := walkStream(cur.Domain().Space(), 350, T, 9, 98)
			for i := range next.Events {
				for j := range next.Events[i] {
					next.Events[i][j].User += 1000
				}
			}
			stream = next
		}
		streamRound(t, cur, stream, ts, rng, nil)
		hl := cur.Health()
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
	if computed < T/2 {
		t.Fatalf("golden run too quiet to pin anything: %d divergence samples", computed)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("monitor series drifted: got %#x, want %#x", got, want)
	}
}
