package pipeline

import (
	"time"

	"retrasyn/internal/dmu"
	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/synthesis"
	"retrasyn/internal/transition"
)

// Concrete stages. Each mirrors one section of the original monolithic
// round, preserving the random-draw order exactly so single-shard sequential
// runs stay bit-identical to the seed engine.

// OUEPerUserCollector is the faithful per-user OUE path: every sampled
// user's report is individually randomized by the word-parallel sampler
// (ldp.OUE.PerturbPackedInto) straight into one contiguous bit-packed batch,
// and the curator side folds the round with the word-parallel popcount
// network (ldp.Aggregator.AddPackedBatch), sharded across Workers goroutines
// when large.
type OUEPerUserCollector struct {
	Dom *transition.Domain
	Rng ldp.Rand
	// Workers shards the curator-side aggregation fold; ≤ 1 keeps the fold
	// sequential.
	Workers int
}

// Collect implements Collector.
func (c *OUEPerUserCollector) Collect(ctx *StepContext) {
	oracle := ldp.MustOUE(c.Dom.Size(), ctx.Epsilon)
	batch := ldp.NewPackedBatch(c.Dom.Size(), len(ctx.Reporters))
	start := time.Now()
	for _, ev := range ctx.Reporters {
		idx, _ := c.Dom.Index(ev.State)
		oracle.PerturbPackedInto(c.Rng, idx, batch.Grow())
	}
	ctx.Timings.UserSide += time.Since(start)

	start = time.Now()
	agg := ldp.NewAggregator(oracle)
	agg.AddPackedBatch(batch, c.Workers)
	ctx.Aggregate = agg
	ctx.ErrUpd = oracle.Variance(len(ctx.Reporters))
	ctx.Timings.ModelConstruction += time.Since(start)
}

// OUEAggregateCollector samples the aggregate count vector directly in O(d)
// exact binomial draws — statistically identical to the per-user path, as
// ldp's TestBinomialChiSquare pins; see ldp.AggregateOracle — making
// paper-scale populations tractable.
type OUEAggregateCollector struct {
	Dom *transition.Domain
	Rng ldp.Rand

	trueCounts []int // scratch reused across rounds
}

// Collect implements Collector.
func (c *OUEAggregateCollector) Collect(ctx *StepContext) {
	oracle := ldp.MustOUE(c.Dom.Size(), ctx.Epsilon)
	start := time.Now()
	if c.trueCounts == nil {
		c.trueCounts = make([]int, c.Dom.Size())
	}
	for i := range c.trueCounts {
		c.trueCounts[i] = 0
	}
	for _, ev := range ctx.Reporters {
		idx, _ := c.Dom.Index(ev.State)
		c.trueCounts[idx]++
	}
	ctx.Aggregate = ldp.NewAggregateOracle(oracle).Collect(c.Rng, c.trueCounts)
	ctx.ErrUpd = oracle.Variance(len(ctx.Reporters))
	ctx.Timings.ModelConstruction += time.Since(start)
}

// DebiasEstimator produces the unbiased frequency estimates and applies the
// optional privacy-free consistency post-processing (paper Theorem 2).
// Debiasing is model-construction work; post-processing is charged to the
// DMU component like the monolith did.
type DebiasEstimator struct {
	Post ldp.PostProcess
}

// Estimate debiases ctx.Aggregate into ctx.Estimates.
func (e *DebiasEstimator) Estimate(ctx *StepContext) {
	start := time.Now()
	ctx.Estimates = ctx.Aggregate.EstimateAll()
	ctx.Timings.ModelConstruction += time.Since(start)

	start = time.Now()
	e.Post.Apply(ctx.Estimates)
	ctx.Timings.DMU += time.Since(start)
}

// DMUUpdater refreshes the global mobility model (paper §III-C): the first
// round initializes the whole model; afterwards either the Dynamic Mobility
// Update selects the significant transitions, or — with DisableDMU, the
// AllUpdate ablation — every state refreshes.
type DMUUpdater struct {
	Model      *mobility.Model
	DisableDMU bool

	bootstrapped bool
}

// Bootstrapped reports whether the model has been initialized by a first
// collection round.
func (u *DMUUpdater) Bootstrapped() bool { return u.bootstrapped }

// SetBootstrapped overrides the bootstrap flag; engine checkpoint restore
// uses it to resume mid-stream without re-initializing the model.
func (u *DMUUpdater) SetBootstrapped(v bool) { u.bootstrapped = v }

// Update refreshes the model from ctx.Estimates.
func (u *DMUUpdater) Update(ctx *StepContext) {
	start := time.Now()
	est := ctx.Estimates
	switch {
	case !u.bootstrapped:
		u.Model.SetAll(est)
		u.bootstrapped = true
		ctx.Result.NumSignificant = len(est)
		// Initialization is not a DMU selection; don't damp Eq. 10.
	case u.DisableDMU:
		sel := dmu.SelectAllVar(len(est), ctx.ErrUpd)
		u.Model.SetAll(est)
		ctx.Result.NumSignificant = len(sel.Significant)
		ctx.SigRatio = sel.Ratio(len(est))
	default:
		sel := dmu.SelectVar(u.Model.Freqs(), est, ctx.ErrUpd)
		u.Model.Update(sel.Significant, est)
		ctx.Result.NumSignificant = len(sel.Significant)
		ctx.SigRatio = sel.Ratio(len(est))
	}
	ctx.Timings.DMU += time.Since(start)
}

// SynthesisStage advances the real-time synthesizer (paper §III-D) from a
// fresh snapshot of the model.
type SynthesisStage struct {
	Model *mobility.Model
	Synth *synthesis.Synthesizer
	// WaitForUsers defers initialization until users exist — the NoEQ
	// ablation initializes a fixed-size population, so starting it at zero
	// would pin the run empty.
	WaitForUsers bool
}

// Step advances the released synthetic database to ctx.T.
func (s *SynthesisStage) Step(ctx *StepContext) {
	start := time.Now()
	snap := s.Model.Snapshot()
	if s.WaitForUsers && s.Synth.ActiveCount() == 0 && ctx.ActiveCount == 0 {
		// Wait for users to exist before fixing the population size.
	} else {
		s.Synth.Step(ctx.T, ctx.ActiveCount, snap)
	}
	ctx.Timings.Synthesis += time.Since(start)
}
