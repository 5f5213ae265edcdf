// Package pipeline holds the stages of the RetraSyn per-timestamp round
// (paper Algorithm 1) that internal/core's Plan/Close halves run:
//
//	Collector       — one OUE collection round over the sampled reporters;
//	                  the only pluggable stage (two implementations: per-user
//	                  perturbation into bit-packed rows folded by the
//	                  word-parallel popcount network, or the aggregate draw),
//	                  used by the in-process driver — on the wire the packed
//	                  rows arrive over the network instead
//	DebiasEstimator — debiasing (and optional post-processing) of the aggregate
//	DMUUpdater      — the DMU / AllUpdate refresh of the global mobility model
//	SynthesisStage  — the real-time synthetic-database step
//
// A StepContext threads one round's reporters, aggregate, estimates and
// timings through the stages. The package also holds the multi-shard
// Coordinator, which fans a stream out over independent engines.
//
// The stages consume the shared random source in a fixed order (sampling →
// perturbation/aggregate draw → synthesis), which the core package's golden
// tests pin.
package pipeline

import (
	"time"

	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
)

// StepResult reports what one processed timestamp did.
type StepResult struct {
	T              int
	Reported       bool
	NumReporters   int
	Epsilon        float64 // per-user budget spent by reporters
	NumSignificant int     // |S*| of the DMU selection (domain size at init)
	SigRatio       float64 // |S*|/|S| of the DMU selection (0 at init and when silent)
	Stages         Timings // wall time this round charged to each component
}

// Timings accumulates per-component wall time, matching the paper's Table V
// decomposition.
type Timings struct {
	UserSide          time.Duration // client-side perturbation
	ModelConstruction time.Duration // aggregation and debiasing
	DMU               time.Duration // significant-transition selection + update
	Synthesis         time.Duration // generation and size adjustment
}

// Total sums the components.
func (c Timings) Total() time.Duration {
	return c.UserSide + c.ModelConstruction + c.DMU + c.Synthesis
}

// RunStats aggregates a pipeline run.
type RunStats struct {
	Timestamps   int
	Rounds       int // timestamps with a collection round
	TotalReports int // user reports collected
	Relayouts    int // layout migrations (online re-discretization)
	Timings      Timings
}

// merge folds another run's statistics in (used by the Coordinator).
func (s *RunStats) merge(o RunStats) {
	s.Rounds += o.Rounds
	s.TotalReports += o.TotalReports
	s.Timings.UserSide += o.Timings.UserSide
	s.Timings.ModelConstruction += o.Timings.ModelConstruction
	s.Timings.DMU += o.Timings.DMU
	s.Timings.Synthesis += o.Timings.Synthesis
}

// StepContext carries one round through the stages. The driving engine fills
// the reporters and budget; the stages fill the rest.
type StepContext struct {
	T           int
	ActiveCount int // publicly known active-user count (synthesis target)

	// Reporters are the sampled events whose transition states the
	// Collector perturbs and aggregates; empty on silent timestamps.
	Reporters []trajectory.Event
	// Epsilon is the per-reporter budget of this round (the whole ε under
	// population division, the strategy's ε_t under budget division).
	Epsilon float64

	// Aggregate is the raw OUE aggregate the Collector produced.
	Aggregate *ldp.Aggregator
	// ErrUpd is the oracle's per-state estimation variance at this round's
	// budget and population — the err_upd of the DMU comparison (Eq. 7).
	ErrUpd float64
	// Estimates is the debiased (and optionally post-processed) frequency
	// vector the Estimator produced.
	Estimates []float64
	// SigRatio is |S*|/|S| of the DMU selection, feeding Eq. 10's damping.
	SigRatio float64

	// Result accumulates what the step did.
	Result StepResult
	// Timings points at the run-level timing accumulator.
	Timings *Timings
}

// Collector runs one frequency-oracle round over ctx.Reporters at budget
// ctx.Epsilon, leaving the raw aggregate and its variance in ctx.
type Collector interface {
	Collect(ctx *StepContext)
}
