package core

import (
	"fmt"
	"time"

	"retrasyn/internal/allocation"
	"retrasyn/internal/ldp"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// The round — the loop body of Algorithm 1 — in its two halves. Everything
// between them is the driver's: ProcessTimestamp perturbs the sampled events
// locally through a pipeline.Collector; remote.Curator hands the sample out
// as assignments and folds the reports that come back over the network.

// OpenRound describes the round between Plan and Close. It is part of
// EngineState, so a driver can checkpoint while reports are still arriving.
type OpenRound struct {
	// Epsilon is the per-reporter budget: the whole ε under population
	// division, the strategy's ε_t under budget division, 0 when the round
	// collects nothing.
	Epsilon float64 `json:"epsilon"`
	// Pool is the number of users that were eligible for sampling.
	Pool int `json:"pool"`
	// Sampled is the number of users asked to report.
	Sampled int `json:"sampled"`
}

// Collected is what the driver gathered between Plan and Close.
type Collected struct {
	// Aggregate is the round's raw OUE aggregate and ErrUpd its per-state
	// variance (the err_upd of Eq. 7); both are ignored when Reporters is
	// empty.
	Aggregate *ldp.Aggregator
	ErrUpd    float64
	// Reporters are the users whose report was actually folded into
	// Aggregate. Sampled users missing here stay active and unspent.
	Reporters []int
	// Packed records that the fold used the bit-packed representation.
	Packed bool
}

// Plan is the first half of round t (Alg. 1 lines 1–12): it checks timestamp
// ordering, recycles the t−w reporters and registers arrivals (population
// division), consults the strategy — with the bootstrap override — and draws
// the reporters.
//
// present holds one item per present user, whatever the driver samples over:
// the user's event in-process, the user's id on the wire. user extracts the
// id; keep (nil keeps all) drops items that cannot report, after their users
// are registered. The order of present is the order the sampler sees, so it
// must be deterministic for reproducible runs. pool is caller-owned scratch:
// Plan overwrites it and returns the sample as a prefix of it; it may be
// present itself (the pool is filtered in order, so the writes trail the
// reads), which then ends up permuted.
//
// On error nothing has changed. On success the round is open until Close.
func Plan[T any](e *Engine, t int, present []T, user func(T) int, keep func(T) bool, pool []T) ([]T, OpenRound, error) {
	if e.open != nil {
		return nil, OpenRound{}, fmt.Errorf("core: Plan(%d) while round %d is open", t, e.lastT)
	}
	if t <= e.lastT {
		return nil, OpenRound{}, fmt.Errorf("core: round %d after timestamp %d — timestamps must be strictly increasing", t, e.lastT)
	}
	e.lastT = t
	e.stats.Timestamps++

	// Alg. 1 lines 7–9: recycle the t−w reporters, register arrivals — all
	// of them, before keep drops any — and pool the active ones.
	if e.users != nil {
		e.users.BeginTimestamp(t)
	}
	pool = pool[:0]
	for _, p := range present {
		if e.users != nil && !e.users.Admit(user(p)) {
			continue
		}
		if keep != nil && !keep(p) {
			continue
		}
		pool = append(pool, p)
	}

	round := OpenRound{Pool: len(pool)}
	sampled := pool[:0]
	if decision := e.decide(t, len(pool)); decision.Report && len(pool) > 0 {
		sampled = pool
		round.Epsilon = decision.Epsilon
		if e.opts.Division == allocation.Population {
			n := int(decision.Portion*float64(len(pool)) + 0.5)
			if n < 1 {
				// The strategy decided to collect; tiny pools still
				// contribute one report so small deployments make progress
				// (the per-user window invariant is enforced regardless).
				n = 1
			}
			if n > len(pool) {
				n = len(pool)
			}
			// Partial Fisher–Yates: n draws without replacement, permuting
			// the pool in place.
			for i := 0; i < n; i++ {
				j := i + e.rng.IntN(len(pool)-i)
				pool[i], pool[j] = pool[j], pool[i]
			}
			sampled = pool[:n]
			round.Epsilon = e.opts.Epsilon
		}
	}
	round.Sampled = len(sampled)
	e.open = &round
	return sampled, round, nil
}

// decide consults the strategy, bootstrapping the very first collection
// round at 1/w resources when the adaptive strategy would stay silent
// (Alg. 1 lines 1–5).
func (e *Engine) decide(t, poolSize int) allocation.Decision {
	ctx := allocation.Context{
		T:            t,
		W:            e.opts.W,
		Epsilon:      e.opts.Epsilon,
		Dev:          e.dev.Dev(),
		SigRatioMean: e.sig.Mean(),
	}
	if e.budgetWin != nil {
		ctx.WindowUsed = e.budgetWin.Used()
	}
	d := e.strategy.Decide(ctx)
	if !e.updater.Bootstrapped() && poolSize > 0 && !d.Report {
		if e.opts.Division == allocation.Budget {
			return allocation.Decision{Report: true, Epsilon: e.opts.Epsilon / float64(e.opts.W)}
		}
		return allocation.Decision{Report: true, Portion: 1 / float64(e.opts.W)}
	}
	return d
}

// Open returns the round between Plan and Close; ok is false when idle.
func (e *Engine) Open() (round OpenRound, ok bool) {
	if e.open == nil {
		return OpenRound{}, false
	}
	return *e.open, true
}

// LastT returns the last planned timestamp (-1 before the first).
func (e *Engine) LastT() int { return e.lastT }

// ChargeModelConstruction adds wall time a driver spent folding reports
// outside the engine (the wire path) to the model-construction timer, the
// bucket the in-process collectors charge aggregation to.
func (e *Engine) ChargeModelConstruction(d time.Duration) { e.stats.Timings.ModelConstruction += d }

// Close is the second half of round t (Alg. 1 lines 13–20): debias the
// aggregate, refresh the model through the DMU, book the round — roster,
// window, ledger, meter and the Eq. 9–10 trackers — and step the synthesizer
// toward activeCount, the publicly known population size. quitters are the
// users who stop sharing after this round. A round nobody reported in
// (empty col.Reporters) still closes the timestamp and steps the synthesizer.
//
// Close without a matching Plan returns an error and changes nothing.
func (e *Engine) Close(t int, col Collected, quitters []int, activeCount int) (StepResult, error) {
	if e.open == nil || t != e.lastT {
		return StepResult{}, fmt.Errorf("core: Close(%d) without a matching Plan", t)
	}
	round := *e.open
	e.open = nil

	ctx := &pipeline.StepContext{
		T:           t,
		ActiveCount: activeCount,
		Timings:     &e.stats.Timings,
	}
	ctx.Result.T = t
	reported := len(col.Reporters) > 0
	spent := 0.0
	if reported {
		spent = round.Epsilon
		ctx.Epsilon = spent
		ctx.Aggregate, ctx.ErrUpd = col.Aggregate, col.ErrUpd
		ctx.Result.Reported = true
		ctx.Result.NumReporters = len(col.Reporters)
		ctx.Result.Epsilon = spent
		ctx.Result.Packed = col.Packed
		e.estimator.Estimate(ctx)
		e.updater.Update(ctx)
	}
	e.synthStage.Step(ctx)

	// Bookkeeping. None of it touches the RNG or the model, so its position
	// relative to the synthesis step is free.
	e.meter.Observe(spent, len(col.Reporters), round.Pool)
	if reported {
		e.stats.Rounds++
		e.stats.TotalReports += len(col.Reporters)
		if e.users != nil {
			for _, id := range col.Reporters {
				e.users.MarkReported(id, t)
			}
		}
		if e.ledger != nil {
			e.ledger.RecordRound(t, spent, col.Reporters)
		}
	}
	// Alg. 1 line 8 (after the potential final q_j report): retire quitters.
	if e.users != nil {
		for _, id := range quitters {
			e.users.MarkQuitted(id)
		}
	}
	// Window accounting for budget division records actual expenditure.
	if e.budgetWin != nil {
		e.budgetWin.Record(spent)
	}
	e.sig.Push(ctx.SigRatio)
	// Eq. 9 tracks the frequencies *collected* at recent timestamps: the
	// deviation history advances only on reporting rounds. (Pushing the
	// frozen model on silent timestamps would decay Dev to zero and
	// permanently silence the adaptive strategy after a starved round.)
	if reported {
		e.dev.Push(ctx.Estimates)
		e.lastEstimates = ctx.Estimates
		e.lastSigRatio = ctx.SigRatio
		e.lastRoundT = t
	}

	// Timings accumulate cumulatively — the collection work was charged
	// while the round was open — so the increment since the previous Close
	// is this round's cost.
	ctx.Result.SigRatio = ctx.SigRatio
	ctx.Result.Stages = pipeline.Sub(e.stats.Timings, e.lastTimings)
	e.lastTimings = e.stats.Timings
	e.metrics.ObserveStep(ctx.Result)
	return ctx.Result, nil
}

// ProcessTimestamp is the in-process driver: it plans round t over the
// timestamp's events (one transition state per present user), perturbs the
// sampled states locally through the configured collector, and closes the
// round against activeCount. Timestamps must be strictly increasing; an
// out-of-order timestamp returns an error and leaves the engine untouched.
func (e *Engine) ProcessTimestamp(t int, events []trajectory.Event, activeCount int) (StepResult, error) {
	// Sampleable events are those whose state lies inside the domain (NoEQ
	// drops enter/quit events).
	inDomain := func(ev trajectory.Event) bool { _, ok := e.dom.Index(ev.State); return ok }
	reporters, round, err := Plan(e, t, events, func(ev trajectory.Event) int { return ev.User }, inDomain, e.sampleBuf)
	if err != nil {
		return StepResult{}, err
	}
	e.sampleBuf = reporters[:0]

	var col Collected
	if len(reporters) > 0 {
		ctx := &pipeline.StepContext{T: t, Reporters: reporters, Epsilon: round.Epsilon, Timings: &e.stats.Timings}
		e.collector.Collect(ctx)
		e.idBuf = e.idBuf[:0]
		for _, ev := range reporters {
			e.idBuf = append(e.idBuf, ev.User)
		}
		col = Collected{Aggregate: ctx.Aggregate, ErrUpd: ctx.ErrUpd, Reporters: e.idBuf, Packed: ctx.Result.Packed}
	}
	e.quitBuf = e.quitBuf[:0]
	if e.users != nil {
		for _, ev := range events {
			if ev.State.Kind == transition.Quit {
				e.quitBuf = append(e.quitBuf, ev.User)
			}
		}
	}
	return e.Close(t, col, e.quitBuf, activeCount)
}
