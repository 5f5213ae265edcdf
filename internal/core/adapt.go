package core

import (
	"cmp"
	"fmt"
	"time"

	"retrasyn/internal/monitor"
	"retrasyn/internal/obs"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
)

// What happens after a round closes, for every driver: the released stream is
// sketched, the utility monitor closes its round, and — when a rebuild is due
// — a fresh layout is proposed and the engines migrate onto it. The facade
// passes all its shard engines, the wire curator a slice of one. Everything
// here is post-processing of already-public data: it costs no budget, never
// touches an engine RNG and never enters an engine checkpoint.

// NewLayoutControl builds the two observers of the released stream for a
// deployment booted on cfg.Space: the re-discretization controller (nil
// unless track is set or cfg.RediscretizeEvery > 0) and the utility monitor
// (nil when cfg.MonitorWindow is 0), with the monitor's alarms wired into the
// controller's trigger policy. cfg has passed Validate. The rebuilt trees
// tile the boot layout's bounds and default to its cell count as their leaf
// budget, which keeps the LDP report size stable across migrations.
func NewLayoutControl(cfg Config, track bool, reg *obs.Registry) (*relayout.Controller, *monitor.Monitor, error) {
	var ctl *relayout.Controller
	if track || cfg.RediscretizeEvery > 0 {
		var err error
		ctl, err = relayout.NewController(relayout.ControllerOptions{
			Every:     cfg.RediscretizeEvery,
			W:         cfg.W,
			Threshold: cfg.RelayoutThreshold,
			Quadtree:  spatial.QuadtreeOptions{MaxLeaves: cmp.Or(cfg.RelayoutLeaves, cfg.Space.NumCells())},
			Bounds:    cfg.Space.Bounds(),
			Trigger:   cfg.TriggerPolicy,
		})
		if err != nil {
			return nil, nil, err
		}
		ctl.SetMetrics(reg)
	}
	var mon *monitor.Monitor
	if cfg.MonitorWindow > 0 {
		var err error
		if mon, err = monitor.New(monitor.Options{Window: cfg.MonitorWindow}); err != nil {
			return nil, nil, err
		}
		mon.SetMetrics(reg)
		if ctl != nil {
			ctl.SetAlarmSource(mon)
		}
	}
	if cfg.TriggerPolicy.UsesAlarms() {
		if ctl == nil {
			return nil, nil, fmt.Errorf("core: TriggerPolicy %q requires RediscretizeEvery > 0", cfg.TriggerPolicy)
		}
		if mon == nil {
			return nil, nil, fmt.Errorf("core: TriggerPolicy %q requires MonitorWindow > 0 — the degradation trigger consumes the monitor's alarms", cfg.TriggerPolicy)
		}
	}
	return ctl, mon, nil
}

// LayoutChange reports what one AdaptLayout or Rediscretize call saw and did.
type LayoutChange struct {
	// Monitor is the utility monitor's report for the round (zero without a
	// monitor, and from Rediscretize).
	Monitor monitor.RoundReport
	// Proposal is the rebuild that was evaluated (zero when none was due).
	Proposal relayout.Proposal
	// Switched is true when the engines migrated onto Proposal.Target, and
	// Migration is the wall time that took.
	Switched  bool
	Migration time.Duration
	// Observe is the wall time AdaptLayout spent watching the round — the
	// release sketch plus the monitor's round — before any rebuild (zero from
	// Rediscretize).
	Observe time.Duration
}

// AdaptLayout runs the post-round observation loop after timestamp t closed
// on every engine. Two orderings matter and are fixed here. The monitor
// compares this round's estimates against the sketch *before* this round's
// release folds in: the synthesizer adapts to the estimates within the round,
// so sketching first would dilute a regime change with the already-adapted
// stream and the sentinel would miss exactly the shifts it exists to catch.
// And the monitor closes its round before the trigger is consulted, so a
// degradation policy sees alarms that include timestamp t. errs is the
// deployment's cumulative error count (the monitor's errors signal). ctl and
// mon may each be nil; with both nil nothing is sketched.
func AdaptLayout(engines []*Engine, ctl *relayout.Controller, mon *monitor.Monitor, t int, errs int64) (LayoutChange, error) {
	if ctl == nil && mon == nil {
		return LayoutChange{}, nil
	}
	start := time.Now()
	first := engines[0]
	pts := first.posBuf[:0]
	for _, e := range engines {
		pts = e.ReleasedPositions(pts)
	}
	first.posBuf = pts // both observers copy what they keep
	if ctl != nil {
		ctl.Observe(t, pts)
	}
	var rep monitor.RoundReport
	if mon != nil {
		cellEst, sigRatio := reportedEstimates(engines, t)
		rep = mon.Round(t, first.space, cellEst, sigRatio, errs)
		mon.ObserveRelease(t, pts)
	}
	observe := time.Since(start)
	first.mObserve.Observe(observe)
	if ctl == nil || !ctl.Due(t) {
		return LayoutChange{Monitor: rep, Observe: observe}, nil
	}
	ch, err := Rediscretize(engines, ctl, mon, false)
	ch.Monitor, ch.Observe = rep, observe
	return ch, err
}

// reportedEstimates folds the DP estimates of the engines that reported at t
// onto the layout's cells, summed across engines — every engine runs the same
// layout, so the per-cell masses align — with the mean of their significance
// ratios. cellEst is nil when no engine reported at t: the monitor then
// closes the round without a divergence sample.
func reportedEstimates(engines []*Engine, t int) (cellEst []float64, sigRatio float64) {
	reported := 0
	for _, e := range engines {
		est, sig, lt, ok := e.LastReportedRound()
		if !ok || lt != t {
			continue
		}
		masses := monitor.CellMasses(e.dom, est, nil)
		if cellEst == nil {
			cellEst = masses
		} else {
			for i := range cellEst {
				cellEst[i] += masses[i]
			}
		}
		sigRatio += sig
		reported++
	}
	if reported > 0 {
		sigRatio /= float64(reported)
	}
	return cellEst, sigRatio
}

// Rediscretize grows a fresh layout from the controller's sketch of the
// released stream and, when the trigger policy says to switch — or, with
// force, whenever the rebuilt layout differs from the current one at all —
// migrates every engine onto it between two rounds, so the whole fleet is
// always on one layout. The switch is reported back to the controller and the
// monitor, whose layout-dependent baselines re-learn on the new layout.
func Rediscretize(engines []*Engine, ctl *relayout.Controller, mon *monitor.Monitor, force bool) (LayoutChange, error) {
	current := engines[0].space
	prop, err := ctl.Propose(current)
	ch := LayoutChange{Proposal: prop}
	if err != nil {
		return ch, err
	}
	if prop.Target == nil || prop.Target.Fingerprint() == current.Fingerprint() || (!prop.Switch && !force) {
		return ch, nil
	}
	start := time.Now()
	if err := RelayoutAll(engines, prop.Target); err != nil {
		return ch, err
	}
	ctl.NoteSwitch(prop.Distance)
	mon.NoteRelayout()
	ch.Switched = true
	ch.Migration = time.Since(start)
	return ch, nil
}

// RelayoutAll is the fleet-wide migration barrier: it switches every engine
// onto sp between two rounds. The engines of one deployment share their
// configuration and layout, so a migration that cannot apply fails on the
// first engine, before anything changed; a later failure is fatal to the
// fleet.
func RelayoutAll(engines []*Engine, sp spatial.Discretizer) error {
	for i, e := range engines {
		if err := e.Relayout(sp); err != nil {
			return fmt.Errorf("core: relayout engine %d: %w", i, err)
		}
	}
	return nil
}
