package remote

import (
	"io"
	"log/slog"

	"retrasyn/internal/core"
	"retrasyn/internal/obs"
	"retrasyn/internal/pipeline"
)

// curatorMetrics bundles the curator's own registry handles; the engine
// records the pipeline.* stage latencies and the budget.* meter on the same
// registry. The registry is always on — it costs a few atomics per round —
// and run-scoped: nothing here enters snapshots, and a restored curator
// counts from zero.
type curatorMetrics struct {
	rounds         *obs.Counter
	reports        *obs.Counter
	presenceEvents *obs.Counter
	roundErrors    *obs.Counter
	relayoutErrors *obs.Counter

	openRound    *obs.Gauge
	presentUsers *obs.Gauge
	pendingAsgn  *obs.Gauge
	poolSize     *obs.Gauge
	sampledUsers *obs.Gauge
	domainSize   *obs.Gauge
	sigRatio     *obs.Gauge
	significant  *obs.Gauge
	generation   *obs.Gauge

	reportCount *obs.Histogram
	migration   *obs.Histogram
}

func newCuratorMetrics(reg *obs.Registry) curatorMetrics {
	return curatorMetrics{
		rounds:         reg.Counter("curator.rounds"),
		reports:        reg.Counter("curator.reports"),
		presenceEvents: reg.Counter("curator.presence_events"),
		roundErrors:    reg.Counter("curator.round_errors"),
		relayoutErrors: reg.Counter("curator.relayout_errors"),
		openRound:      reg.Gauge("curator.open_round"),
		presentUsers:   reg.Gauge("curator.present_users"),
		pendingAsgn:    reg.Gauge("curator.pending_assignments"),
		poolSize:       reg.Gauge("curator.round_pool"),
		sampledUsers:   reg.Gauge("curator.round_sampled"),
		domainSize:     reg.Gauge("curator.domain_size"),
		sigRatio:       reg.Gauge("curator.dmu.sig_ratio"),
		significant:    reg.Gauge("curator.dmu.significant"),
		generation:     reg.Gauge("relayout.generation"),
		reportCount:    reg.Histogram("curator.round.report_count"),
		migration:      reg.Histogram("relayout.migration_duration_us"),
	}
}

// Metrics returns the curator's always-on metrics registry; NewHandler
// serves it at GET /metrics.
func (c *Curator) Metrics() *obs.Registry { return c.reg }

// SetLogger installs the error logger for round-processing and relayout
// failures. Default: a text logger discarded (silent), so servers must opt
// in. Safe to call before serving traffic.
func (c *Curator) SetLogger(l *slog.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l != nil {
		c.logger = l
	}
}

// SetTracer installs the opt-in round tracer: one structured event per
// Finalize with stage latencies, report counts, budget stats and relayout
// state. cmd/curator -trace-rounds points this at a JSONL file.
func (c *Curator) SetTracer(l *slog.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = l
}

// discardLogger is the default silent logger.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// roundError logs a round-processing failure with timestamp context and
// counts it; returns err unchanged so call sites stay one-liners.
func (c *Curator) roundError(op string, t int, err error) error {
	if err == nil {
		return nil
	}
	c.metrics.roundErrors.Inc()
	c.logger.Error("round processing failed", "op", op, "t", t, "err", err.Error())
	return err
}

// relayoutError logs a relayout failure with timestamp context and counts it.
func (c *Curator) relayoutError(t int, err error) error {
	if err == nil {
		return nil
	}
	c.metrics.relayoutErrors.Inc()
	c.logger.Error("relayout failed", "t", t, "err", err.Error())
	return err
}

// traceRound emits the per-round tracer event: the plan the round opened
// with, what closing it did (res.Stages covers the report folds since the
// previous Finalize plus this round's estimate/DMU/synthesis work), what the
// layout observers saw and how long watching took. Divergence keys carry −1
// on rounds where it was not computed (unreported round or empty release
// sketch). Called under c.mu.
func (c *Curator) traceRound(round core.OpenRound, res pipeline.StepResult, ch core.LayoutChange) {
	if c.tracer == nil {
		return
	}
	divL1, divJS := -1.0, -1.0
	if ch.Monitor.Computed {
		divL1, divJS = ch.Monitor.L1, ch.Monitor.JS
	}
	alarms := ch.Monitor.Alarms
	if alarms == nil {
		alarms = []string{}
	}
	c.tracer.Info("round",
		"t", res.T,
		"reported", res.Reported,
		"reports", res.NumReporters,
		"epsilon", res.Epsilon,
		"pool", round.Pool,
		"sampled", round.Sampled,
		"sig_ratio", res.SigRatio,
		"significant", res.NumSignificant,
		"model_construction_us", res.Stages.ModelConstruction.Microseconds(),
		"dmu_us", res.Stages.DMU.Microseconds(),
		"synthesis_us", res.Stages.Synthesis.Microseconds(),
		"observe_us", ch.Observe.Microseconds(),
		"domain_size", c.eng.Domain().Size(),
		"generation", c.eng.Generation(),
		"relayout_switched", ch.Switched,
		"divergence", divJS,
		"divergence_l1", divL1,
		"alarms", alarms,
		"trigger_fired", ch.Proposal.Switch,
	)
}
