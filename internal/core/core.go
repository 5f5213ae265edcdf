// Package core is the one implementation of RetraSyn's per-timestamp round
// (paper Algorithm 1), split at the only seam the protocol has — reports
// arrive between the two halves:
//
//	Plan    — ordering, roster recycle + registration, the allocation
//	          decision with the bootstrap override, reporter sampling
//	collect — the driver's part: local perturbation (ProcessTimestamp) or
//	          reports arriving over the network (internal/remote.Curator)
//	Close   — debias → DMU → tracker / window / ledger / roster bookkeeping
//	          → synthesis step
//
// round.go holds both halves. The engine owns everything a round touches:
// allocation strategy state, user lifecycle, window accounting, the privacy
// ledger, the mobility model and the synthesizer. Both the budget-division
// and population-division variants are provided, along with the paper's
// ablations (AllUpdate: no DMU; NoEQ: no entering/quitting modelling).
package core

import (
	"fmt"

	"retrasyn/internal/allocation"
	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/obs"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
	"retrasyn/internal/synthesis"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// OracleMode selects how the OUE collection round is simulated.
type OracleMode int

const (
	// PerUser runs the faithful per-user perturbation path — every sampled
	// user's report is individually randomized and aggregated. Use for
	// fidelity measurements (Table V user-side timing) and moderate scales.
	PerUser OracleMode = iota
	// Aggregate samples the aggregate count vector directly, in O(d) exact
	// binomial draws per round: statistically identical to PerUser (pinned
	// by ldp's TestBinomialChiSquare; see ldp.AggregateOracle), though not
	// the same stream. Use for paper-scale populations.
	Aggregate
)

// Options configures an Engine: the shared Config plus the in-process
// extras only the library and its benches set.
type Options struct {
	Config
	// DisableDMU refreshes the whole model every round (AllUpdate ablation).
	DisableDMU bool
	// DisableEQ drops entering/quitting modelling (NoEQ ablation): the
	// domain is movement-only, synthetic streams never terminate, and the
	// population is fixed at its initial size with uniform random starts.
	DisableEQ bool
	// OracleMode selects the collection simulation path.
	OracleMode OracleMode
	// PostProcess optionally projects each round's estimates toward the
	// probability simplex before they feed the DMU and the model — a
	// privacy-free extension (Theorem 2) evaluated by the post-processing
	// ablation bench. Default none (the paper's behaviour).
	PostProcess ldp.PostProcess
	// Metrics, when non-nil, receives pipeline stage-latency histograms,
	// round/report counters and the privacy-budget meter series. Metrics are
	// run-scoped — they never enter EngineState — and recording never touches
	// the engine RNG, so instrumented runs stay bit-identical. Nil (the
	// default) disables instrumentation at zero cost.
	Metrics *obs.Registry
	// MetricsShard labels this engine's series when several shards share one
	// registry (the Coordinator sets it; default 0).
	MetricsShard int
}

func (o *Options) defaults() error {
	if err := o.Validate(); err != nil {
		return err
	}
	if o.Kappa == 0 {
		o.Kappa = 5
	}
	if !o.DisableEQ && !(o.Lambda > 0) {
		return fieldErr("Lambda", "must be > 0, got %v", o.Lambda)
	}
	return nil
}

// StepResult reports what one processed timestamp did.
type StepResult = pipeline.StepResult

// ComponentTimings accumulates per-component wall time, matching the
// paper's Table V decomposition.
type ComponentTimings = pipeline.Timings

// RunStats aggregates an engine run.
type RunStats = pipeline.RunStats

// Engine is the streaming curator: the state of Algorithm 1 and its round
// (round.go). Feed it one timestamp at a time with ProcessTimestamp, drive a
// whole recorded stream with Run, or — when reports come from elsewhere —
// call the Plan and Close halves yourself. Not safe for concurrent use; run
// one Engine per shard under a pipeline.Coordinator for parallel streams.
type Engine struct {
	opts Options
	// space is the discretization currently in effect; it starts as
	// opts.Space and advances on Relayout. generation counts the layout
	// migrations applied so far (0 = the boot layout).
	space      spatial.Discretizer
	generation int
	bootFP     ConfigFingerprint
	strategy   allocation.Strategy
	dom        *transition.Domain
	model      *mobility.Model
	synth      *synthesis.Synthesizer
	rng        *ldp.Source

	// The concrete stages of a round; collector is the in-process driver's
	// (ProcessTimestamp), the other three run in Close for every driver.
	collector  pipeline.Collector
	estimator  pipeline.DebiasEstimator
	updater    *pipeline.DMUUpdater
	synthStage pipeline.SynthesisStage

	budgetWin *allocation.BudgetWindow
	dev       *allocation.DevTracker
	sig       *allocation.SigTracker
	users     *UserTracker
	ledger    *allocation.Ledger

	lastT int        // last planned timestamp; -1 before the first
	open  *OpenRound // the round between Plan and Close; nil when idle
	stats RunStats

	// metrics/meter are the run-scoped instrumentation handles; both are nil
	// (no-op) unless Options.Metrics was set. Never checkpointed.
	metrics     *pipeline.Metrics
	meter       *allocation.Meter
	mObserve    *obs.Histogram   // AdaptLayout's wall time, recorded on engine 0
	lastTimings pipeline.Timings // stats.Timings at the previous Close

	// lastEstimates/lastSigRatio retain the most recent reported round's DP
	// estimate vector (domain-indexed, shared with the dev tracker) and
	// significance ratio for the utility monitor. Run-scoped, never
	// checkpointed, and dropped on relayout — the vector indexes the old
	// domain.
	lastEstimates []float64
	lastSigRatio  float64
	lastRoundT    int

	// scratch buffers reused across timestamps
	sampleBuf []trajectory.Event
	idBuf     []int
	quitBuf   []int
	cellBuf   []spatial.Cell  // ReleasedPositions: the live streams' cells
	posBuf    []spatial.Point // AdaptLayout: the fleet's positions, on engine 0
}

// New creates an engine.
func New(opts Options) (*Engine, error) { return newEngine(opts, 0x9e3779b97f4a7c15) }

// NewWire creates the engine a networked curator drives through Plan and
// Close. It differs from New only in the second word of the RNG seed pair:
// the wire curator drew from its own stream when it still carried a private
// copy of the round, and its releases stay bit-identical to those.
func NewWire(opts Options) (*Engine, error) { return newEngine(opts, 0x6a09e667f3bcc908) }

func newEngine(opts Options, rngStream uint64) (*Engine, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	dom := opts.domainOver(opts.Space)
	rng := ldp.NewSource(opts.Seed, opts.Seed^rngStream)
	synth, err := synthesis.New(opts.Space, synthesis.Options{
		Lambda:             opts.Lambda,
		DisableTermination: opts.DisableEQ,
	}, rng)
	if err != nil {
		return nil, err
	}
	strategy, _ := opts.newStrategy() // the name passed Validate
	e := &Engine{
		opts:      opts,
		strategy:  strategy,
		synth:     synth,
		rng:       rng,
		estimator: pipeline.DebiasEstimator{Post: opts.PostProcess},
		dev:       allocation.NewDevTracker(opts.Kappa),
		sig:       allocation.NewSigTracker(opts.Kappa),
		lastT:     -1,
	}
	e.rewire(opts.Space, dom, mobility.NewModel(dom), false)
	e.bootFP = opts.fingerprint(dom)
	e.metrics = pipeline.NewMetrics(opts.Metrics, opts.MetricsShard)
	e.meter = allocation.NewMeter(opts.Metrics, opts.W)
	e.mObserve = opts.Metrics.Histogram("relayout.observe_duration_us")
	if opts.Division == allocation.Budget {
		e.budgetWin = allocation.NewBudgetWindow(opts.W)
	} else {
		e.users = NewUserTracker(opts.W)
	}
	// Seed the deviation history with the pre-collection all-zero vector, so
	// the first collected estimate registers as drift (Dev ≈ ‖f̂‖₁) instead of
	// deadlocking the adaptive strategy at Dev = 0.
	e.dev.Push(make([]float64, dom.Size()))
	return e, nil
}

// domainOver builds the transition domain the options call for over sp:
// movement-only under the NoEQ ablation, with enter/quit states otherwise.
func (o *Options) domainOver(sp spatial.Discretizer) *transition.Domain {
	if o.DisableEQ {
		return transition.NewMoveOnlyDomain(sp)
	}
	return transition.NewDomain(sp)
}

// newCollector picks the OUE collection stage for the configured mode.
func newCollector(opts Options, dom *transition.Domain, rng ldp.Rand) pipeline.Collector {
	if opts.OracleMode == Aggregate {
		return &pipeline.OUEAggregateCollector{Dom: dom, Rng: rng}
	}
	return &pipeline.OUEPerUserCollector{Dom: dom, Rng: rng, Workers: ldp.DefaultWorkers()}
}

// Domain exposes the engine's transition domain (for tests and tooling).
func (e *Engine) Domain() *transition.Domain { return e.dom }

// Space returns the spatial discretization currently in effect (the boot
// layout until the first Relayout).
func (e *Engine) Space() spatial.Discretizer { return e.space }

// Generation returns how many layout migrations the engine has applied.
func (e *Engine) Generation() int { return e.generation }

// ReleasedPositions appends the continuous positions of the live synthetic
// streams at the current timestamp to buf and returns it. These are points
// of the *released* stream — the privacy-free input online re-discretization
// sketches density from. A released cell only says "somewhere in this box",
// so each point is spread over its cell's box by a deterministic
// low-discrepancy sequence (never the engine RNG — observation must not
// perturb the release stream): collapsing whole coarse cells onto their
// center would make re-discretization split forever around single points and
// hide density spread inside coarse regions. Falls back to cell centers for
// non-boxed backends.
func (e *Engine) ReleasedPositions(buf []spatial.Point) []spatial.Point {
	boxed, _ := e.space.(spatial.Boxed)
	poly, _ := e.space.(spatial.Overlapper)
	e.cellBuf = e.synth.ActiveCells(e.cellBuf[:0])
	for _, c := range e.cellBuf {
		// Index the spread sequence by the position in buf, not the
		// per-engine stream index: a sharded framework accumulates all
		// shards into one buffer, and restarting the sequence per shard
		// would collapse same-index streams of one cell onto identical
		// points across shards.
		switch {
		case boxed != nil:
			buf = append(buf, relayout.SpreadInBox(boxed.CellBox(c), len(buf)))
		case poly != nil:
			// Polygonal cells spread inside their polygon, not its bounding
			// box, so geofenced releases never sketch density into gap space
			// the fence deliberately excludes.
			buf = append(buf, relayout.SpreadInPieces(poly.CellPieces(c), len(buf)))
		default:
			x, y := e.space.Center(c)
			buf = append(buf, spatial.Point{X: x, Y: y})
		}
	}
	return buf
}

// Relayout migrates the live engine onto a new spatial discretization
// between two timestamps (the engine must be quiescent, exactly as for
// Snapshot). Both the current and the new discretizer must expose their cell
// boxes (spatial.Boxed). The migration resamples all layout-dependent state
// through the cell-overlap area weights:
//
//   - the mobility model's transition/enter/quit mass is pushed through the
//     overlap matrix (mass-conserving; see relayout.Migration.RemapFreqs);
//   - the adaptive strategy's deviation history is re-indexed the same way,
//     so the drift signal survives;
//   - the synthesizer's in-flight (and completed) trajectories are remapped
//     to the max-overlap new cell;
//   - the transition domain, collector and DMU stage are rebuilt over the
//     new layout, preserving the bootstrap flag.
//
// The RNG position, allocation window accounting, user lifecycle and privacy
// ledger are layout-free and carry over untouched. Migrating onto a
// layout-identical discretizer is an exact no-op for the release stream
// (pinned by the golden relayout tests).
func (e *Engine) Relayout(sp spatial.Discretizer) error {
	if sp == nil {
		return fmt.Errorf("core: Relayout with a nil discretizer")
	}
	if e.open != nil {
		// The open round's sample and partial aggregate index the current
		// domain.
		return fmt.Errorf("core: relayout while round %d is open — close it first", e.lastT)
	}
	mig, err := relayout.NewMigration(e.space, sp)
	if err != nil {
		return fmt.Errorf("core: relayout: %w", err)
	}
	newDom := e.opts.domainOver(sp)
	newFreq, err := mig.RemapFreqs(e.dom, newDom, e.model.Freqs())
	if err != nil {
		return fmt.Errorf("core: relayout: %w", err)
	}
	devSt, err := mig.RemapDevState(e.dom, newDom, e.dev.State())
	if err != nil {
		return fmt.Errorf("core: relayout: %w", err)
	}
	newModel := mobility.NewModel(newDom)
	if err := newModel.Restore(mobility.State{Freq: newFreq, Init: e.model.Initialized()}); err != nil {
		return fmt.Errorf("core: relayout: %w", err)
	}
	e.dev.Restore(devSt)
	e.synth.Relayout(sp, mig.MapCell)
	e.rewire(sp, newDom, newModel, e.updater.Bootstrapped())
	e.generation++
	e.stats.Relayouts++
	return nil
}

// rewire points the engine's layout-dependent plumbing — domain, model,
// collector, DMU and synthesis stages — at a discretization. Used by the
// constructor, by Relayout (after migrating state) and by checkpoint restore
// (before loading state vectors sized to the snapshot's layout).
func (e *Engine) rewire(sp spatial.Discretizer, dom *transition.Domain, model *mobility.Model, bootstrapped bool) {
	e.space = sp
	e.dom = dom
	e.model = model
	e.lastEstimates = nil // indexed by the old domain; see LastReportedRound
	e.collector = newCollector(e.opts, dom, e.rng)
	e.updater = &pipeline.DMUUpdater{Model: model, DisableDMU: e.opts.DisableDMU}
	e.updater.SetBootstrapped(bootstrapped)
	e.synthStage = pipeline.SynthesisStage{Model: model, Synth: e.synth, WaitForUsers: e.opts.DisableEQ}
}

// adoptSpace rebuilds the engine's layout-dependent state over sp without
// migrating anything — the checkpoint-restore path, where the snapshot's
// state vectors (already sized to sp's domain) are loaded right after.
func (e *Engine) adoptSpace(sp spatial.Discretizer, generation int) {
	dom := e.opts.domainOver(sp)
	e.synth.Relayout(sp, nil)
	e.rewire(sp, dom, mobility.NewModel(dom), false)
	e.generation = generation
}

// Model exposes the global mobility model.
func (e *Engine) Model() *mobility.Model { return e.model }

// Ledger returns the privacy ledger recorded so far (nil until Run or
// EnableLedger).
func (e *Engine) Ledger() *allocation.Ledger { return e.ledger }

// EnableLedger starts recording collection rounds for a timeline of length T.
func (e *Engine) EnableLedger(T int) { e.ledger = allocation.NewLedger(T) }

// Stats returns the accumulated run statistics.
func (e *Engine) Stats() RunStats { return e.stats }

// Run processes a whole recorded stream and returns the released synthetic
// database.
func (e *Engine) Run(stream *trajectory.Stream, name string) (*trajectory.Dataset, RunStats) {
	if e.ledger == nil {
		e.EnableLedger(stream.T)
	}
	for t := 0; t < stream.T; t++ {
		// The error path is unreachable: t increases strictly from 0.
		e.ProcessTimestamp(t, stream.At(t), stream.Active[t])
	}
	return e.Synthetic(name, stream.T), e.stats
}

// Synthetic returns the current released synthetic database.
func (e *Engine) Synthetic(name string, T int) *trajectory.Dataset {
	return e.synth.Dataset(name, T)
}

// LastReportedRound returns the DP estimate vector (domain-indexed, shared —
// treat as read-only), the significance ratio and the timestamp of the most
// recent reported round. ok is false before the first reported round and
// again right after a relayout, whose migration invalidates the retained
// vector's indexing, until the next reported round refills it.
func (e *Engine) LastReportedRound() (estimates []float64, sigRatio float64, t int, ok bool) {
	if e.lastEstimates == nil {
		return nil, 0, -1, false
	}
	return e.lastEstimates, e.lastSigRatio, e.lastRoundT, true
}
