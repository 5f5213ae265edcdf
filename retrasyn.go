// Package retrasyn is a Go implementation of RetraSyn — real-time
// trajectory synthesis with local differential privacy (Hu et al., ICDE
// 2024). An untrusted curator collects users' movement transition states
// through the OUE frequency oracle under w-event ε-LDP, maintains a global
// mobility model refreshed by the Dynamic Mobility Update mechanism, and
// continuously releases a synthetic trajectory database whose
// spatial-temporal distribution tracks the hidden real stream.
//
// The package is a facade over the implementation packages: construct a
// Framework with New, feed it one timestamp of user events at a time (or
// replay a recorded Dataset with Run), and read the evolving synthetic
// database with Synthetic. Utility evaluation, dataset generators, and the
// LDP-IDS baselines are exposed alongside.
//
// Minimal usage:
//
//	g, _ := retrasyn.NewGrid(6, retrasyn.Bounds{MaxX: 30, MaxY: 30})
//	fw, _ := retrasyn.New(retrasyn.Options{
//		Grid:    g,
//		Epsilon: 1.0,
//		Window:  20,
//		Lambda:  13.6,
//	})
//	syn, _, _ := fw.Run(dataset) // dataset: *retrasyn.Dataset
package retrasyn

import (
	"encoding/json"
	"fmt"
	"io"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/geofence"
	"retrasyn/internal/grid"
	"retrasyn/internal/ldpids"
	"retrasyn/internal/metrics"
	"retrasyn/internal/monitor"
	"retrasyn/internal/obs"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// Re-exported building blocks. Aliases keep the public API nameable while
// the implementation lives in internal packages.
type (
	// Discretizer is the pluggable spatial discretization: a finite cell
	// domain with a reachability adjacency structure. The uniform Grid and
	// the density-adaptive Quadtree both implement it.
	Discretizer = spatial.Discretizer
	// Grid is the K×K uniform spatial discretization (the paper's setup).
	Grid = grid.System
	// Quadtree is the density-adaptive spatial discretization for skewed
	// workloads: hot regions split fine, cold regions stay coarse, so the
	// LDP state domain stops wasting budget on empty cells.
	Quadtree = spatial.Quadtree
	// QuadtreeOptions parameterizes NewQuadtree.
	QuadtreeOptions = spatial.QuadtreeOptions
	// Geofence is the polygonal spatial discretization: cells follow
	// arbitrary simple polygons (districts, campuses, road corridors)
	// instead of rectangles, so the LDP state domain covers only the space
	// trajectories can actually occupy.
	Geofence = geofence.Fence
	// FencePolygon is one geofence cell's vertex ring.
	FencePolygon = geofence.Polygon
	// Point is a continuous location, used for quadtree density sketches.
	Point = spatial.Point
	// Bounds is a continuous bounding box.
	Bounds = spatial.Bounds
	// Cell identifies a cell of a discretization.
	Cell = spatial.Cell
	// Dataset is a discretized trajectory-stream database.
	Dataset = trajectory.Dataset
	// CellTrajectory is one discretized stream.
	CellTrajectory = trajectory.CellTrajectory
	// RawDataset is a continuous (pre-discretization) database.
	RawDataset = trajectory.RawDataset
	// Event is one user's transition state at a timestamp.
	Event = trajectory.Event
	// State is a transition state (movement, entering, or quitting).
	State = transition.State
	// UtilityReport carries the paper's eight utility metrics.
	UtilityReport = metrics.Report
	// UtilityOptions parameterizes utility evaluation.
	UtilityOptions = metrics.Options
	// RunStats aggregates engine statistics, including the per-component
	// timings of the paper's Table V.
	RunStats = core.RunStats
)

// MoveState, EnterState and QuitState construct transition states for
// streaming ingestion.
var (
	MoveState  = transition.MoveState
	EnterState = transition.EnterState
	QuitState  = transition.QuitState
)

// NewGrid constructs a K×K grid over the bounds.
func NewGrid(k int, b Bounds) (*Grid, error) { return grid.New(k, b) }

// NewQuadtree grows a density-adaptive quadtree over the bounds from a
// density sketch — points of *public or historical* data (the tree layout
// derives from the sketch without touching the private stream, so building
// it consumes no privacy budget). Use it as Options.Discretizer for skewed
// workloads where a uniform grid would waste most of its cells.
func NewQuadtree(b Bounds, density []Point, opts QuadtreeOptions) (*Quadtree, error) {
	return spatial.NewQuadtree(b, density, opts)
}

// NewGeofence builds a polygonal discretization from a fence polygon set
// (districts, campuses, road corridors). The polygons are validated — simple
// rings, positive area, pairwise disjoint interiors — with errors naming the
// offending polygon index; adjacency follows shared boundary edges. Use the
// result as Options.Discretizer when the deployment's geography is known, so
// no privacy budget is spent estimating unreachable space.
func NewGeofence(polys []FencePolygon) (*Geofence, error) {
	return geofence.NewFence(polys)
}

// ParseFence reads a GeoJSON-style fence file (FeatureCollection of
// Polygons, a bare Polygon, or a MultiPolygon) into the polygon set
// NewGeofence consumes. See the README's geo-fencing section for the format.
func ParseFence(r io.Reader) ([]FencePolygon, error) {
	return geofence.ParseFence(r)
}

// DensitySketch extracts the raw points of a dataset as a quadtree density
// sketch. Only feed it public or historical data — never the private stream
// the engine will collect over.
func DensitySketch(raw *RawDataset) []Point { return raw.Positions() }

// Division selects how the privacy resource is split across timestamps.
type Division = allocation.Division

// Division values.
const (
	// BudgetDivision splits the budget ε across timestamps.
	BudgetDivision = allocation.Budget
	// PopulationDivision splits the users across timestamps; each sampled
	// user spends the whole ε and rests for a window.
	PopulationDivision = allocation.Population
)

// Strategy names accepted by Options.Strategy (see core.Config.Strategy).
const (
	StrategyAdaptive = core.StrategyAdaptive
	StrategyUniform  = core.StrategyUniform
	StrategySample   = core.StrategySample
)

// Options configures a Framework.
type Options struct {
	// Grid is the uniform spatial discretization. Exactly one of Grid and
	// Discretizer must be set.
	Grid *Grid
	// Discretizer is the pluggable spatial discretization — set it instead
	// of Grid to run the engine on an alternative backend such as the
	// density-adaptive quadtree (NewQuadtree).
	Discretizer Discretizer
	// Epsilon is the w-event privacy budget ε (required, > 0).
	Epsilon float64
	// Window is the protected window size w (required, ≥ 1).
	Window int
	// Division selects budget or population division. The zero value is
	// BudgetDivision; set PopulationDivision for the variant the paper finds
	// strongest.
	Division Division
	// Strategy is one of StrategyAdaptive (default), StrategyUniform,
	// StrategySample.
	Strategy string
	// Lambda is the termination-restriction factor λ of Eq. 8; the paper
	// uses the dataset's average stream length. Required unless DisableEQ.
	Lambda float64
	// DisableDMU refreshes the whole mobility model every round (the
	// AllUpdate ablation).
	DisableDMU bool
	// DisableEQ drops entering/quitting modelling (the NoEQ ablation).
	DisableEQ bool
	// FaithfulClients simulates every user's perturbation individually
	// instead of sampling the aggregate (slower, bit-identical semantics;
	// see ldp.AggregateOracle for why the default is statistically
	// equivalent).
	FaithfulClients bool
	// Shards > 1 runs that many independent pipeline instances in parallel,
	// fanning users out by ID and merging the released synthetic databases —
	// the heavy-traffic deployment. Each user's whole stream lands on one
	// shard, so the per-user w-event guarantee is exactly the single-stream
	// one. Shard runs are deterministic for a fixed (Seed, Shards) pair but
	// differ from the single-shard stream. Default 1 (bit-identical to the
	// sequential engine).
	Shards int
	// RediscretizeEvery > 0 enables online adaptive re-discretization: every
	// that many windows (Window timestamps each) the framework grows a fresh
	// density-adaptive quadtree from the *released* synthetic stream — a
	// post-processing of the LDP outputs, so the rebuild is privacy-free —
	// and migrates every engine shard onto it atomically between timestamps
	// whenever the layout distance crosses RelayoutThreshold. 0 (default)
	// keeps the boot layout forever; such runs are bit-identical to builds
	// without the feature.
	RediscretizeEvery int
	// RelayoutThreshold is the minimum layout distance (area-weighted misfit
	// in [0,1)) at which a rebuilt layout replaces the current one; below it
	// the rebuild is discarded, so stable workloads never churn. Default
	// 0.1.
	RelayoutThreshold float64
	// RelayoutLeaves caps the rebuilt quadtrees' leaf budget. Default: the
	// boot discretizer's cell count, keeping the LDP report size stable
	// across migrations.
	RelayoutLeaves int
	// MonitorWindow > 0 enables the live utility monitor: a sliding sketch
	// of that many released timestamps is compared each round against the
	// DP-estimated cell histogram (privacy-free post-processing — both
	// inputs are already public), and deterministic change-point detectors
	// raise alarms on sustained degradation. Like Metrics, the monitor is
	// run-scoped (never checkpointed) and never touches the engine RNG, so
	// monitored runs release bit-identical streams. 0 (default) disables
	// monitoring at zero cost.
	MonitorWindow int
	// TriggerPolicy selects how relayout proposals turn into switches:
	// TriggerGeometric (default — the distance threshold alone),
	// TriggerDegradationOr or TriggerDegradationAnd (which OR/AND the
	// threshold with the monitor's alarms). The degradation policies
	// require RediscretizeEvery > 0 and MonitorWindow > 0.
	TriggerPolicy TriggerPolicy
	// Seed drives all randomness; equal seeds reproduce runs.
	Seed uint64
	// Metrics, when non-nil, receives the run's observability series:
	// per-shard pipeline stage-latency histograms, round/report counters, the
	// privacy-budget meter and relayout gauges. Expose it with
	// Metrics.WritePrometheus. Metrics are run-scoped (never checkpointed)
	// and recording never touches the engine RNG, so instrumented runs stay
	// bit-identical. Nil (the default) disables instrumentation at zero cost.
	Metrics *Metrics
}

// Metrics is the framework's metrics registry — see internal/obs for the
// series model (counters, gauges, mergeable log-bucketed histograms,
// Prometheus text exposition via WritePrometheus).
type Metrics = obs.Registry

// NewMetrics creates an empty metrics registry to pass as Options.Metrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// TriggerPolicy decides when a proposed relayout switches — see
// internal/relayout.TriggerPolicy.
type TriggerPolicy = relayout.TriggerPolicy

// Trigger policies for Options.TriggerPolicy.
const (
	TriggerGeometric      = relayout.TriggerGeometric
	TriggerDegradationOr  = relayout.TriggerDegradationOr
	TriggerDegradationAnd = relayout.TriggerDegradationAnd
)

// Health is the utility monitor's structured verdict — see
// internal/monitor.Health.
type Health = monitor.Health

// Framework is the streaming curator: feed events per timestamp, read the
// synthetic database at any point. With Options.Shards > 1 it drives a
// pipeline.Coordinator over that many independent engines; otherwise a
// single sequential engine. Not safe for concurrent use.
type Framework struct {
	engine  *core.Engine          // single-shard path (Shards ≤ 1)
	coord   *pipeline.Coordinator // multi-shard path
	engines []*core.Engine        // every underlying engine (1 or Shards)
	// Online re-discretization (nil unless Options.RediscretizeEvery > 0):
	// the controller sketches the released stream and proposes rebuilt
	// layouts.
	ctl *relayout.Controller
	// mon is the live utility monitor (nil unless Options.MonitorWindow >
	// 0): run-scoped, RNG-free and excluded from checkpoints.
	mon *monitor.Monitor
	t   int
	// ids is ProcessTimestamp's duplicate-check scratch: the round's user
	// ids, sorted.
	ids []int
}

// New constructs a Framework.
func New(opts Options) (*Framework, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("retrasyn: Shards must be ≥ 0, got %d", opts.Shards)
	}
	eo, err := opts.engineOptions()
	if err != nil {
		return nil, err
	}
	f := &Framework{}
	shards := make([]pipeline.Runner, max(opts.Shards, 1))
	for i := range shards {
		o := eo
		o.Seed = opts.Seed + uint64(i)*0x9e3779b97f4a7c15
		o.MetricsShard = i
		engine, err := core.New(o)
		if err != nil {
			return nil, err
		}
		shards[i] = engine
		f.engines = append(f.engines, engine)
	}
	if f.ctl, f.mon, err = core.NewLayoutControl(eo.Config, false, opts.Metrics); err != nil {
		return nil, err
	}
	if len(shards) == 1 {
		f.engine = f.engines[0]
		return f, nil
	}
	if f.coord, err = pipeline.NewCoordinator(shards); err != nil {
		return nil, err
	}
	return f, nil
}

// engineOptions translates Options into the options of the first engine:
// exactly one of Grid and Discretizer must be set, and everything else is
// checked by core.
func (o Options) engineOptions() (core.Options, error) {
	space := o.Discretizer
	switch {
	case o.Grid != nil && o.Discretizer != nil:
		return core.Options{}, fmt.Errorf("retrasyn: set exactly one of Options.Grid and Options.Discretizer, not both")
	case o.Grid != nil:
		space = o.Grid
	case o.Discretizer == nil:
		return core.Options{}, fmt.Errorf("retrasyn: a spatial discretization is required — set Options.Grid or Options.Discretizer")
	}
	mode := core.Aggregate
	if o.FaithfulClients {
		mode = core.PerUser
	}
	return core.Options{
		Config: core.Config{
			Space:             space,
			Epsilon:           o.Epsilon,
			W:                 o.Window,
			Division:          o.Division,
			Strategy:          o.Strategy,
			Lambda:            o.Lambda,
			Seed:              o.Seed,
			RediscretizeEvery: o.RediscretizeEvery,
			RelayoutThreshold: o.RelayoutThreshold,
			RelayoutLeaves:    o.RelayoutLeaves,
			MonitorWindow:     o.MonitorWindow,
			TriggerPolicy:     o.TriggerPolicy,
		},
		DisableDMU: o.DisableDMU,
		DisableEQ:  o.DisableEQ,
		OracleMode: mode,
		Metrics:    o.Metrics,
	}, nil
}

// ProcessTimestamp ingests one timestamp of user events (one transition
// state per present user) together with the publicly known count of active
// users, advancing the synthetic database. Timestamps must be fed in order
// starting from 0; feeding them out of order returns an error without
// advancing the framework.
//
// Inputs are validated before any state changes: a negative active-user
// count or a duplicate user ID within the events (which would let one user
// contribute two reports in a round, silently corrupting the estimates and
// the per-user privacy accounting) returns a descriptive error and leaves
// the framework untouched.
func (f *Framework) ProcessTimestamp(events []Event, activeUsers int) error {
	if activeUsers < 0 {
		return fmt.Errorf("retrasyn: ProcessTimestamp(t=%d): activeUsers must be ≥ 0, got %d", f.t, activeUsers)
	}
	var dup int
	if dup, f.ids = core.FirstRepeat(events, func(ev Event) int { return ev.User }, f.ids); dup >= 0 {
		return fmt.Errorf("retrasyn: ProcessTimestamp(t=%d): duplicate event for user %d — each user reports at most one transition state per timestamp", f.t, events[dup].User)
	}
	if f.coord != nil {
		if _, err := f.coord.ProcessTimestamp(f.t, events, activeUsers); err != nil {
			return err
		}
	} else if _, err := f.engine.ProcessTimestamp(f.t, events, activeUsers); err != nil {
		return err
	}
	t := f.t
	f.t++
	// Sketch the release, close the monitor's round and, at a rebuild
	// boundary, migrate every shard (see core.AdaptLayout for the ordering;
	// a no-op without a controller or monitor).
	if _, err := core.AdaptLayout(f.engines, f.ctl, f.mon, t, 0); err != nil {
		return fmt.Errorf("retrasyn: re-discretization after timestamp %d: %w", t, err)
	}
	return nil
}

// Health returns the utility monitor's structured verdict. Without a
// monitor (Options.MonitorWindow == 0) it reports "ok" with no signals.
func (f *Framework) Health() Health { return f.mon.Health() }

// Relayout migrates the framework — every engine shard, atomically between
// timestamps — onto a new spatial discretization, resampling all live state
// through the cell-overlap weights (see core.Engine.Relayout). It may be
// called manually at any quiescent point; the automatic path driven by
// Options.RediscretizeEvery goes through it too.
func (f *Framework) Relayout(d Discretizer) error { return core.RelayoutAll(f.engines, d) }

// Space returns the spatial discretization currently in effect (the boot
// discretizer until the first relayout).
func (f *Framework) Space() Discretizer { return f.engines[0].Space() }

// LayoutGeneration returns how many layout migrations the framework has
// applied.
func (f *Framework) LayoutGeneration() int { return f.engines[0].Generation() }

// Timestamp returns the next timestamp to be processed.
func (f *Framework) Timestamp() int { return f.t }

// Synthetic returns the current released synthetic database over the
// timestamps processed so far (the merged per-shard releases under
// Shards > 1).
func (f *Framework) Synthetic(name string) *Dataset {
	if f.coord != nil {
		return f.coord.Synthetic(name, f.t)
	}
	return f.engine.Synthetic(name, f.t)
}

// Stats returns accumulated run statistics (summed across shards).
func (f *Framework) Stats() RunStats {
	if f.coord != nil {
		return f.coord.Stats()
	}
	return f.engine.Stats()
}

// Run replays a recorded dataset through the framework and returns the
// released synthetic database. The dataset is converted to per-timestamp
// transition-state events exactly as user devices would report them.
func (f *Framework) Run(orig *Dataset) (*Dataset, RunStats, error) {
	if f.t != 0 {
		return nil, RunStats{}, fmt.Errorf("retrasyn: Run on a framework that already processed %d timestamps", f.t)
	}
	if f.ctl != nil {
		return nil, RunStats{}, fmt.Errorf("retrasyn: Run replays pre-discretized events, whose cell indices go stale when the layout migrates — use RunAdaptive with the raw stream when RediscretizeEvery is enabled")
	}
	stream := trajectory.NewStream(orig)
	if f.coord != nil {
		syn, stats, err := f.coord.Run(stream, orig.Name+"-syn")
		if err != nil {
			return nil, stats, err
		}
		f.t = stream.T
		return syn, stats, nil
	}
	syn, stats := f.engine.Run(stream, orig.Name+"-syn")
	f.t = stream.T
	return syn, stats, nil
}

// RunAdaptive replays a raw (continuous) stream with online adaptive
// re-discretization: every timestamp's events are encoded against the layout
// currently in effect — the faithful simulation of devices that always
// report in the curator's published discretization — and after each
// migration the remaining stream is re-discretized against the new layout.
// Streams are not split at reachability violations (splitting would renumber
// users differently per layout and break the per-user window accounting);
// moves that violate the constraint under the current layout simply don't
// report, exactly as an out-of-domain transition behaves in the streaming
// API. Requires Options.RediscretizeEvery > 0.
func (f *Framework) RunAdaptive(raw *RawDataset) (*Dataset, RunStats, error) {
	if f.ctl == nil {
		return nil, RunStats{}, fmt.Errorf("retrasyn: RunAdaptive requires Options.RediscretizeEvery > 0 — use Run for frozen layouts")
	}
	if f.t != 0 {
		return nil, RunStats{}, fmt.Errorf("retrasyn: RunAdaptive on a framework that already processed %d timestamps", f.t)
	}
	discretize := func() *trajectory.Stream {
		return trajectory.NewStream(trajectory.Discretize(raw, f.Space(), trajectory.DiscretizeOptions{}))
	}
	stream := discretize()
	for t := 0; t < stream.T; t++ {
		gen := f.LayoutGeneration()
		if err := f.ProcessTimestamp(stream.At(t), stream.Active[t]); err != nil {
			return nil, f.Stats(), err
		}
		if f.LayoutGeneration() != gen {
			stream = discretize()
		}
	}
	return f.Synthetic(raw.Name + "-syn"), f.Stats(), nil
}

// CheckpointVersion guards the checkpoint container format.
const CheckpointVersion = 1

// Checkpoint is a serializable snapshot of a Framework mid-stream: the full
// processing state of every underlying engine (mobility model, allocation
// trackers, window accounting, synthesizer streams and RNG position). A
// framework restored from a checkpoint — with the same Options — continues
// the stream with releases bit-identical to an uninterrupted run.
type Checkpoint struct {
	Version int `json:"version"`
	// T is the next timestamp the framework expects.
	T int `json:"t"`
	// Shards is the shard count the checkpoint was taken at (1 for the
	// single-engine path).
	Shards int `json:"shards"`
	// States holds one opaque engine-state blob per shard.
	States []json.RawMessage `json:"states"`
	// Relayout carries the online re-discretization controller (density
	// sketch and switch history) when the feature is enabled, so rebuild
	// decisions after a restore match the uninterrupted run exactly. Each
	// engine blob independently records the layout it was running on.
	Relayout *relayout.ControllerState `json:"relayout,omitempty"`
}

// Snapshot exports the framework's complete processing state. The framework
// must be quiescent (no ProcessTimestamp in flight); the returned checkpoint
// is a deep copy that later processing never mutates.
func (f *Framework) Snapshot() (*Checkpoint, error) {
	cp := &Checkpoint{Version: CheckpointVersion, T: f.t, Shards: len(f.engines)}
	if f.ctl != nil {
		st := f.ctl.State()
		cp.Relayout = &st
	}
	for i, e := range f.engines {
		st, err := e.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("retrasyn: snapshot shard %d: %w", i, err)
		}
		cp.States = append(cp.States, st)
	}
	return cp, nil
}

// Restore reconstructs a Framework from a checkpoint. opts must equal the
// options the snapshotted framework was built with — each engine validates
// its config fingerprint and rejects mismatches.
func Restore(opts Options, cp *Checkpoint) (*Framework, error) {
	if cp == nil {
		return nil, fmt.Errorf("retrasyn: Restore on nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("retrasyn: checkpoint version %d, library supports %d", cp.Version, CheckpointVersion)
	}
	shards := opts.Shards
	if shards <= 1 {
		shards = 1
	}
	if cp.Shards != shards || len(cp.States) != shards {
		return nil, fmt.Errorf("retrasyn: checkpoint has %d shard states, options configure %d shards", len(cp.States), shards)
	}
	f, err := New(opts)
	if err != nil {
		return nil, err
	}
	for i, e := range f.engines {
		if err := e.RestoreState(cp.States[i]); err != nil {
			return nil, fmt.Errorf("retrasyn: restore shard %d: %w", i, err)
		}
	}
	if f.ctl != nil && cp.Relayout != nil {
		if err := f.ctl.Restore(*cp.Relayout); err != nil {
			return nil, err
		}
	}
	f.t = cp.T
	return f, nil
}

// Encode writes the checkpoint as JSON.
func (cp *Checkpoint) Encode(w io.Writer) error {
	return json.NewEncoder(w).Encode(cp)
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("retrasyn: decode checkpoint: %w", err)
	}
	return &cp, nil
}

// EvaluateUtility computes the paper's eight utility metrics of a synthetic
// database against the original, over the uniform grid.
func EvaluateUtility(orig, syn *Dataset, g *Grid, opts UtilityOptions) UtilityReport {
	return metrics.Evaluate(orig, syn, g, opts)
}

// EvaluateUtilitySpace computes the eight utility metrics over any spatial
// discretization — quadtree and post-migration runs get first-class utility
// reports, with range queries drawn as continuous boxes over the space.
func EvaluateUtilitySpace(orig, syn *Dataset, d Discretizer, opts UtilityOptions) UtilityReport {
	return metrics.EvaluateSpace(orig, syn, d, opts)
}

// Discretize maps a raw continuous dataset onto the cells of a
// discretization (uniform grid or any other backend), splitting streams at
// reachability violations — the preprocessing the paper applies before
// collection.
func Discretize(raw *RawDataset, d Discretizer) *Dataset {
	return trajectory.Discretize(raw, d, trajectory.DiscretizeOptions{SplitNonAdjacent: true})
}

// BaselineMethod selects an LDP-IDS mechanism.
type BaselineMethod = ldpids.Method

// Baseline methods.
const (
	LBD = ldpids.LBD
	LBA = ldpids.LBA
	LPD = ldpids.LPD
	LPA = ldpids.LPA
)

// RunBaseline replays a dataset through an LDP-IDS baseline (the paper's
// comparison systems) and returns its released synthetic database.
func RunBaseline(orig *Dataset, g *Grid, method BaselineMethod, epsilon float64, window int, seed uint64) (*Dataset, error) {
	e, err := ldpids.New(ldpids.Options{
		Grid:    g,
		Epsilon: epsilon,
		W:       window,
		Method:  method,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	syn, _ := e.Run(trajectory.NewStream(orig), orig.Name+"-"+method.String())
	return syn, nil
}
