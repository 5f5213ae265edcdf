package retrasyn

import (
	"strings"
	"testing"

	"retrasyn/internal/core"
	"retrasyn/internal/remote"
)

// facadeOptions spells a core.Config as the facade's Options.
func facadeOptions(c core.Config) Options {
	return Options{
		Discretizer:       c.Space,
		Epsilon:           c.Epsilon,
		Window:            c.W,
		Division:          c.Division,
		Strategy:          c.Strategy,
		Lambda:            c.Lambda,
		Seed:              c.Seed,
		RediscretizeEvery: c.RediscretizeEvery,
		RelayoutThreshold: c.RelayoutThreshold,
		RelayoutLeaves:    c.RelayoutLeaves,
		MonitorWindow:     c.MonitorWindow,
		TriggerPolicy:     c.TriggerPolicy,
	}
}

// TestInvalidConfigRejectedByEveryFrontDoor: one table of invalid
// configurations, and the engine, the facade and the curator all refuse
// each of them — the checks live in core.Config.Validate alone.
func TestInvalidConfigRejectedByEveryFrontDoor(t *testing.T) {
	_, g := smallDataset(t)
	valid := core.Config{Space: g, Epsilon: 1, W: 5, Division: PopulationDivision, Lambda: 5, Seed: 1}
	for name, mutate := range map[string]func(*core.Config){
		"no space":                    func(c *core.Config) { c.Space = nil },
		"zero epsilon":                func(c *core.Config) { c.Epsilon = 0 },
		"negative epsilon":            func(c *core.Config) { c.Epsilon = -1 },
		"zero window":                 func(c *core.Config) { c.W = 0 },
		"zero lambda":                 func(c *core.Config) { c.Lambda = 0 },
		"unknown strategy":            func(c *core.Config) { c.Strategy = "zigzag" },
		"negative rediscretize-every": func(c *core.Config) { c.RediscretizeEvery = -1 },
		"threshold 1, frozen layout":  func(c *core.Config) { c.RelayoutThreshold = 1 },
		"negative threshold":          func(c *core.Config) { c.RelayoutThreshold = -0.1 },
		"negative leaves, frozen":     func(c *core.Config) { c.RelayoutLeaves = -1 },
		"negative leaves, rebuilding": func(c *core.Config) { c.RelayoutLeaves, c.RediscretizeEvery = -1, 1 },
		"negative monitor window":     func(c *core.Config) { c.MonitorWindow = -1 },
		"unknown trigger":             func(c *core.Config) { c.TriggerPolicy = "bogus" },
	} {
		c := valid
		mutate(&c)
		if _, err := core.New(core.Options{Config: c}); err == nil {
			t.Errorf("%s: core.New accepted it", name)
		}
		if _, err := New(facadeOptions(c)); err == nil {
			t.Errorf("%s: retrasyn.New accepted it", name)
		}
		if _, err := remote.NewCurator(c); err == nil {
			t.Errorf("%s: remote.NewCurator accepted it", name)
		}
	}
	if _, err := New(facadeOptions(valid)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestRestoreRejectsAnotherStrategy: a checkpoint taken under the adaptive
// strategy must not restore into a facade or a curator running another
// strategy — the strategy's trackers are part of the state, and the release
// would silently continue under different rules.
func TestRestoreRejectsAnotherStrategy(t *testing.T) {
	orig, g := smallDataset(t)
	events, active := NewStreamEvents(orig)
	cfg := core.Config{Space: g, Epsilon: 1, W: 5, Division: PopulationDivision, Lambda: orig.Stats().AvgLength, Seed: 9}

	fw, err := New(facadeOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := remote.NewCurator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < orig.T/2; ts++ {
		if err := fw.ProcessTimestamp(events[ts], active[ts]); err != nil {
			t.Fatal(err)
		}
		if err := cur.Plan(ts); err != nil {
			t.Fatal(err)
		}
		if err := cur.Finalize(ts, active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := fw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := cur.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{StrategyUniform, StrategySample} {
		other := cfg
		other.Strategy = strategy
		if _, err := Restore(facadeOptions(other), cp); err == nil || !strings.Contains(err.Error(), "does not match engine config") {
			t.Errorf("facade, adaptive → %s: Restore error = %v, want config mismatch", strategy, err)
		}
		restored, err := remote.NewCurator(other)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(st); err == nil || !strings.Contains(err.Error(), "does not match engine config") {
			t.Errorf("curator, adaptive → %s: Restore error = %v, want config mismatch", strategy, err)
		}
	}
	// The same strategy, spelled out, restores: "" and "adaptive" are one.
	same := cfg
	same.Strategy = StrategyAdaptive
	if _, err := Restore(facadeOptions(same), cp); err != nil {
		t.Fatalf("facade, adaptive → adaptive: %v", err)
	}
}
