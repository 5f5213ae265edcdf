package core

import (
	"fmt"

	"retrasyn/internal/allocation"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
)

// Strategy names accepted by Config.Strategy.
const (
	// StrategyAdaptive is the paper's portion-based adaptive strategy
	// (Eq. 10); the default.
	StrategyAdaptive = "adaptive"
	// StrategyUniform spreads resources evenly over the window.
	StrategyUniform = "uniform"
	// StrategySample spends the whole window's resources at its first
	// timestamp.
	StrategySample = "sample"
)

// Config is the one configuration every front door builds an engine from:
// the in-process facade (retrasyn.Options translates into it) and the
// networked curator (remote.CuratorConfig is this type). Validate is the
// only place its settings are checked, but for Lambda: core.New checks that,
// because the NoEQ ablation (Options.DisableEQ) does without it.
type Config struct {
	// Space is the boot spatial discretization (required) — the uniform
	// grid for the paper's setup, or any other spatial.Discretizer backend.
	Space   spatial.Discretizer
	Epsilon float64
	// W is the w-event window size.
	W int
	// Division selects budget or population division. The zero value is
	// budget division, so releases under the zero Config stay put; the paper
	// finds population division strongest.
	Division allocation.Division
	// Strategy names the allocation strategy: StrategyAdaptive (also "",
	// the default), StrategyUniform or StrategySample. Every engine builds
	// its own strategy value from the name, and the name is part of the
	// checkpoint fingerprint.
	Strategy string
	// Lambda is the synthesis termination factor λ (Eq. 8); the paper sets
	// it to the dataset's average trajectory length.
	Lambda float64
	// Kappa is the tracker history length κ of Eq. 9–10 (default 5).
	Kappa int
	// Seed drives all engine randomness; equal seeds reproduce runs exactly.
	Seed uint64

	// Layout control: the post-round observers NewLayoutControl builds. Their
	// outcome is checkpointed on its own (EngineState.Generation/Layout and
	// the controller state), so they stay out of the fingerprint.

	// RediscretizeEvery > 0 grows a fresh quadtree from the released stream
	// every that many windows and migrates onto it when the layout distance
	// crosses RelayoutThreshold. It needs a Space that exposes its cell
	// geometry.
	RediscretizeEvery int
	// RelayoutThreshold is the layout distance in [0, 1) at which a rebuilt
	// layout replaces the current one (0 = relayout.DefaultThreshold).
	RelayoutThreshold float64
	// RelayoutLeaves caps the rebuilt quadtrees' leaf budget (0 = the boot
	// layout's cell count, which keeps the report size stable).
	RelayoutLeaves int
	// MonitorWindow is the utility monitor's release-sketch length in
	// timestamps. The facade treats 0 as off; the curator always runs the
	// monitor (its /v1/health is built on it) and treats 0 as W.
	MonitorWindow int
	// TriggerPolicy selects how relayout proposals turn into switches
	// (relayout.TriggerPolicy; "" is geometric).
	TriggerPolicy relayout.TriggerPolicy
}

// FieldError is a rejected configuration value. Field is the Go field name,
// which commands translate to their flag (FlagError).
type FieldError struct {
	Field   string
	Problem string
}

func (e *FieldError) Error() string { return "core: " + e.Field + " " + e.Problem }

func fieldErr(field, format string, args ...any) error {
	return &FieldError{Field: field, Problem: fmt.Sprintf(format, args...)}
}

// Validate rejects a Config no engine can run, naming the field.
func (c Config) Validate() error {
	if c.Space == nil {
		return fieldErr("Space", "(the spatial discretization) is required")
	}
	if c.RediscretizeEvery > 0 && !relayout.Migratable(c.Space) {
		// Fail at construction, not at the first periodic rebuild, by which
		// time a round has already committed.
		return fieldErr("RediscretizeEvery", "needs a discretizer exposing cell geometry (grid, quadtree or geofence), got %T", c.Space)
	}
	return c.validateSettings()
}

// validateSettings checks every field but Space: what a command can check
// before its data fixes the discretization.
func (c Config) validateSettings() error {
	if !(c.Epsilon > 0) {
		return fieldErr("Epsilon", "must be > 0, got %v", c.Epsilon)
	}
	if c.W < 1 {
		return fieldErr("W", "must be ≥ 1, got %d", c.W)
	}
	if _, err := c.newStrategy(); err != nil {
		return err
	}
	if c.RediscretizeEvery < 0 {
		return fieldErr("RediscretizeEvery", "must be ≥ 0, got %d", c.RediscretizeEvery)
	}
	if c.RelayoutThreshold < 0 || c.RelayoutThreshold >= 1 {
		return fieldErr("RelayoutThreshold", "must be in [0, 1), got %v", c.RelayoutThreshold)
	}
	if c.RelayoutLeaves < 0 {
		return fieldErr("RelayoutLeaves", "must be ≥ 0, got %d", c.RelayoutLeaves)
	}
	if c.MonitorWindow < 0 {
		return fieldErr("MonitorWindow", "must be ≥ 0, got %d", c.MonitorWindow)
	}
	if err := c.TriggerPolicy.Validate(); err != nil {
		return fieldErr("TriggerPolicy", "is invalid: %v", err)
	}
	return nil
}

// newStrategy is the one strategy parser: it builds a fresh strategy value
// for one engine (strategies hold state) from the configured name.
func (c Config) newStrategy() (allocation.Strategy, error) {
	switch c.Strategy {
	case "", StrategyAdaptive:
		return allocation.NewAdaptive(c.Division), nil
	case StrategyUniform:
		return &allocation.Uniform{Division: c.Division}, nil
	case StrategySample:
		return &allocation.Sample{Division: c.Division}, nil
	}
	return nil, fieldErr("Strategy", "%q is unknown (want %q, %q or %q)", c.Strategy, StrategyAdaptive, StrategyUniform, StrategySample)
}
