package core

import (
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/obs"
	"retrasyn/internal/trajectory"
)

// TestFingerprintCoversEveryField requires every Options field — the
// embedded Config's included — to change the checkpoint fingerprint, or to
// be named below with the reason it may not. A field added to either struct
// without a decision fails here.
func TestFingerprintCoversEveryField(t *testing.T) {
	const layoutControl = "layout control: its outcome is checkpointed on its own, as EngineState.Generation/Layout and the controller state"
	unpinned := map[string]string{
		"Config":            "the embedded struct; its fields are checked one by one",
		"Metrics":           "run-scoped: recording never touches the engine RNG or state",
		"MetricsShard":      "run-scoped: a label on the metrics series",
		"MonitorWindow":     "run-scoped: the monitor never enters a checkpoint",
		"RediscretizeEvery": layoutControl,
		"RelayoutThreshold": layoutControl,
		"RelayoutLeaves":    layoutControl,
		"TriggerPolicy":     layoutControl,
	}
	pinned := map[string]func(*Options){
		"Space":       func(o *Options) { o.Space = grid.MustNew(5, grid.Bounds{MaxX: 1, MaxY: 1}) },
		"Epsilon":     func(o *Options) { o.Epsilon = 2 },
		"W":           func(o *Options) { o.W = 6 },
		"Division":    func(o *Options) { o.Division = allocation.Budget },
		"Strategy":    func(o *Options) { o.Strategy = StrategySample },
		"Lambda":      func(o *Options) { o.Lambda = 7 },
		"Kappa":       func(o *Options) { o.Kappa = 3 },
		"Seed":        func(o *Options) { o.Seed = 43 },
		"DisableDMU":  func(o *Options) { o.DisableDMU = true },
		"DisableEQ":   func(o *Options) { o.DisableEQ = true },
		"OracleMode":  func(o *Options) { o.OracleMode = Aggregate },
		"PostProcess": func(o *Options) { o.PostProcess = ldp.PostProcessClamp },
	}
	fingerprint := func(o Options) ConfigFingerprint {
		if err := o.defaults(); err != nil {
			t.Fatal(err)
		}
		return o.fingerprint(o.domainOver(o.Space))
	}
	base := defaultOpts(allocation.Population)
	want := fingerprint(base)
	seen := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		seen[f.Name] = true
		if _, ok := unpinned[f.Name]; ok {
			continue
		}
		mutate, ok := pinned[f.Name]
		if !ok {
			t.Errorf("Options.%s is neither fingerprinted nor allowlisted with a reason", f.Name)
			continue
		}
		o := base
		mutate(&o)
		if fingerprint(o) == want {
			t.Errorf("changing Options.%s leaves the fingerprint unchanged", f.Name)
		}
	}
	for name := range unpinned {
		if !seen[name] {
			t.Errorf("allowlisted field %s does not exist", name)
		}
	}
	for name := range pinned {
		if !seen[name] {
			t.Errorf("fingerprinted field %s does not exist", name)
		}
	}
}

// TestRestoreRejectsAnotherPostProcess: a checkpoint taken under one
// estimate post-processing does not restore into an engine running another.
func TestRestoreRejectsAnotherPostProcess(t *testing.T) {
	opts := defaultOpts(allocation.Population)
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	stream := trajectory.NewStream(walkDataset(opts.Space, 100, 10, 6, 3))
	for ts := 0; ts < 5; ts++ {
		if _, err := e.ProcessTimestamp(ts, stream.At(ts), stream.Active[ts]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range []ldp.PostProcess{ldp.PostProcessClamp, ldp.PostProcessNormSub} {
		o := opts
		o.PostProcess = pp
		other, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Restore(st); err == nil || !strings.Contains(err.Error(), "does not match engine config") {
			t.Errorf("post-process %d: Restore error = %v, want config mismatch", pp, err)
		}
	}
}

// TestConfigRejectionsNameTheField pins that Validate names what it
// rejects, which is what lets FlagError name the flag.
func TestConfigRejectionsNameTheField(t *testing.T) {
	for field, mutate := range map[string]func(*Config){
		"Space":             func(c *Config) { c.Space = nil },
		"Epsilon":           func(c *Config) { c.Epsilon = 0 },
		"W":                 func(c *Config) { c.W = 0 },
		"Strategy":          func(c *Config) { c.Strategy = "zigzag" },
		"RediscretizeEvery": func(c *Config) { c.RediscretizeEvery = -1 },
		"RelayoutThreshold": func(c *Config) { c.RelayoutThreshold = 1 },
		"RelayoutLeaves":    func(c *Config) { c.RelayoutLeaves = -1 },
		"MonitorWindow":     func(c *Config) { c.MonitorWindow = -1 },
		"TriggerPolicy":     func(c *Config) { c.TriggerPolicy = "bogus" },
	} {
		c := defaultOpts(allocation.Population).Config
		mutate(&c)
		var fe *FieldError
		if err := c.Validate(); !errors.As(err, &fe) || fe.Field != field {
			t.Errorf("%s: error %v does not name the field", field, err)
		}
	}
}

// parseFlags runs a command line through RegisterFlags, Validate and Space,
// as the commands do.
func parseFlags(args ...string) (*Flags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if _, err := f.Space(f.Bounds(), nil); err != nil {
		return nil, err
	}
	return f, nil
}

func TestValidateFlags(t *testing.T) {
	f, err := parseFlags("-strategy", "sample", "-division", "budget", "-trigger", "degradation-or")
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if f.Strategy != StrategySample || f.Division != allocation.Budget || f.TriggerPolicy != "degradation-or" {
		t.Fatalf("flags did not reach the Config: %+v", f.Config)
	}
	for flag, args := range map[string][]string{
		"-k":                  {"-k", "0"},
		"-eps":                {"-eps", "0"},
		"-w":                  {"-w", "0"},
		"-boundsMax":          {"-boundsMax", "0"},
		"-division":           {"-division", "even"},
		"-strategy":           {"-strategy", "zigzag"},
		"-max-leaves":         {"-spatial", "quadtree", "-density", "d.csv", "-max-leaves", "0"},
		"-density":            {"-spatial", "quadtree"},
		"-fence":              {"-spatial", "geofence"},
		"-spatial":            {"-spatial", "hexagonal"},
		"-rediscretize-every": {"-rediscretize-every", "-1"},
		"-relayout-threshold": {"-relayout-threshold", "1"},
		"-trigger":            {"-trigger", "bogus"},
	} {
		if _, err := parseFlags(args...); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s: error %v does not name the flag", flag, err)
		}
	}
	// -k sizes the uniform grid only: another discretization ignores it.
	if _, err := parseFlags("-k", "0", "-spatial", "geofence", "-fence", "missing.geojson"); err == nil || strings.Contains(err.Error(), "-k") {
		t.Errorf("-k checked under -spatial geofence: %v", err)
	}
}

// TestFlagErrorNamesCommandFlags: the rejections of the fields commands bind
// their own flags to are renamed too; other errors pass through.
func TestFlagErrorNamesCommandFlags(t *testing.T) {
	opts := defaultOpts(allocation.Population)
	opts.Lambda = 0
	if _, err := New(opts); !strings.Contains(FlagError(err).Error(), "-lambda") {
		t.Errorf("Lambda: %v", FlagError(err))
	}
	opts = defaultOpts(allocation.Population)
	opts.MonitorWindow = -1
	if _, err := New(opts); !strings.Contains(FlagError(err).Error(), "-monitor-window") {
		t.Errorf("MonitorWindow: %v", FlagError(err))
	}
	other := errors.New("unrelated")
	if FlagError(other) != other {
		t.Error("FlagError rewrote an error that names no field")
	}
}

// TestLayoutControlDegradationNeedsObservers: a degradation trigger without
// a controller or without a monitor has nothing to act on or to consume.
func TestLayoutControlDegradationNeedsObservers(t *testing.T) {
	cfg := defaultOpts(allocation.Population).Config
	cfg.TriggerPolicy = "degradation-or"
	cfg.MonitorWindow = 4
	if _, _, err := NewLayoutControl(cfg, false, obs.NewRegistry()); err == nil || !strings.Contains(err.Error(), "RediscretizeEvery") {
		t.Errorf("no controller: %v", err)
	}
	cfg.MonitorWindow = 0
	if _, _, err := NewLayoutControl(cfg, true, nil); err == nil || !strings.Contains(err.Error(), "MonitorWindow") {
		t.Errorf("no monitor: %v", err)
	}
	cfg.MonitorWindow = 4
	if ctl, mon, err := NewLayoutControl(cfg, true, nil); err != nil || ctl == nil || mon == nil {
		t.Errorf("tracked and monitored: ctl %v mon %v err %v", ctl, mon, err)
	}
}
