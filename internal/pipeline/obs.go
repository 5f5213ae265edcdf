package pipeline

import (
	"strconv"

	"retrasyn/internal/obs"
)

// Metrics is a shard-scoped bundle of pipeline series handles. core.Engine
// hands every closed round's StepResult to ObserveStep, so stage latencies
// land in per-stage histograms without the stages themselves knowing about
// the registry. A nil *Metrics records nothing — the instrumentation-off
// mode.
type Metrics struct {
	stageUserSide  *obs.Histogram
	stageModel     *obs.Histogram
	stageDMU       *obs.Histogram
	stageSynthesis *obs.Histogram

	rounds      *obs.Counter
	silent      *obs.Counter
	reports     *obs.Counter
	reportCount *obs.Histogram

	sigRatio    *obs.Gauge
	significant *obs.Gauge
}

// NewMetrics registers the pipeline series for one shard on reg. Returns nil
// (record-nothing) on a nil registry.
func NewMetrics(reg *obs.Registry, shard int) *Metrics {
	if reg == nil {
		return nil
	}
	sh := obs.Label{Key: "shard", Value: strconv.Itoa(shard)}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("pipeline.stage.latency_us", sh, obs.Label{Key: "stage", Value: name})
	}
	return &Metrics{
		stageUserSide:  stage("user_side"),
		stageModel:     stage("model_construction"),
		stageDMU:       stage("dmu"),
		stageSynthesis: stage("synthesis"),
		rounds:         reg.Counter("pipeline.rounds", sh),
		silent:         reg.Counter("pipeline.silent_timestamps", sh),
		reports:        reg.Counter("pipeline.reports", sh),
		reportCount:    reg.Histogram("pipeline.round.report_count", sh),
		sigRatio:       reg.Gauge("pipeline.dmu.sig_ratio", sh),
		significant:    reg.Gauge("pipeline.dmu.significant", sh),
	}
}

// ObserveStep records one closed round.
func (m *Metrics) ObserveStep(res StepResult) {
	if m == nil {
		return
	}
	m.stageUserSide.Observe(res.Stages.UserSide)
	m.stageModel.Observe(res.Stages.ModelConstruction)
	m.stageDMU.Observe(res.Stages.DMU)
	m.stageSynthesis.Observe(res.Stages.Synthesis)
	if res.Reported {
		m.rounds.Inc()
		m.reportCount.ObserveValue(int64(res.NumReporters))
		m.reports.Add(int64(res.NumReporters))
		m.sigRatio.Set(res.SigRatio)
		m.significant.Set(float64(res.NumSignificant))
	} else {
		m.silent.Inc()
	}
}

// Sub returns the component-wise difference a − b, the Timings increment
// between two snapshots.
func Sub(a, b Timings) Timings {
	return Timings{
		UserSide:          a.UserSide - b.UserSide,
		ModelConstruction: a.ModelConstruction - b.ModelConstruction,
		DMU:               a.DMU - b.DMU,
		Synthesis:         a.Synthesis - b.Synthesis,
	}
}
