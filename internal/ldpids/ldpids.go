// Package ldpids implements the LDP-IDS streaming release framework (Ren et
// al., SIGMOD'22) — the paper's state-of-the-art baseline — adapted to
// trajectory streams exactly as §V-A prescribes: the two-phase
// dissimilarity-then-publish machinery collects users' movement transition
// states and maintains a released movement-frequency vector, which then
// drives the same Markov synthesizer as RetraSyn but without any
// entering/quitting modelling (constant-size, never-terminating synthetic
// streams initialized at random cells).
//
// Four allocation mechanisms are provided:
//
//   - LBD — budget distribution: ε/2 spread uniformly for dissimilarity
//     estimation, publications spend half the remaining publication budget
//     of the window (exponential decay).
//   - LBA — budget absorption: uniform ε/(2w) publication quanta; skipped
//     timestamps donate their quantum to the next publication, which then
//     nullifies as many following timestamps as it absorbed.
//   - LPD / LPA — the population analogues: user subsets substitute budget
//     shares, every sampled user spends the whole ε and rests for w
//     timestamps.
package ldpids

import (
	"fmt"
	"math/rand/v2"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/grid"
	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/synthesis"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// Method enumerates the four LDP-IDS mechanisms.
type Method int

const (
	// LBD is budget distribution (exponentially decaying publication budget).
	LBD Method = iota
	// LBA is budget absorption (uniform quanta with absorption).
	LBA
	// LPD is population distribution.
	LPD
	// LPA is population absorption.
	LPA
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case LBD:
		return "LBD"
	case LBA:
		return "LBA"
	case LPD:
		return "LPD"
	case LPA:
		return "LPA"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// IsPopulation reports whether the method divides users rather than budget.
func (m Method) IsPopulation() bool { return m == LPD || m == LPA }

// Options configures a baseline engine.
type Options struct {
	Grid    *grid.System
	Epsilon float64
	W       int
	Method  Method
	// OracleMode selects the collection simulation path (shared with core).
	OracleMode core.OracleMode
	Seed       uint64
}

func (o *Options) validate() error {
	if o.Grid == nil {
		return fmt.Errorf("ldpids: Grid is required")
	}
	if !(o.Epsilon > 0) {
		return fmt.Errorf("ldpids: Epsilon must be > 0, got %v", o.Epsilon)
	}
	if o.W < 1 {
		return fmt.Errorf("ldpids: W must be ≥ 1, got %d", o.W)
	}
	return nil
}

// Engine is the LDP-IDS curator. Not safe for concurrent use.
type Engine struct {
	opts Options
	dom  *transition.Domain
	rng  *rand.Rand

	model *mobility.Model // holds the released vector r_t
	synth *synthesis.Synthesizer

	// Budget-division state.
	pubWin  *allocation.BudgetWindow // publication-half expenditure over w
	carry   int                      // LBA: absorbed quanta available
	nullify int                      // LBA: timestamps to skip after absorption

	// Population-division state.
	users *core.UserTracker

	ledger       *allocation.Ledger
	bootstrapped bool
	synthInit    bool
	stats        Stats

	trueCounts []int
	eligBuf    []trajectory.Event
}

// Stats aggregates a run.
type Stats struct {
	Timestamps   int
	Publications int
	TotalReports int
}

// New creates a baseline engine.
func New(opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	dom := transition.NewMoveOnlyDomain(opts.Grid)
	rng := ldp.NewRand(opts.Seed, opts.Seed^0xd1b54a32d192ed03)
	synth, err := synthesis.New(opts.Grid, synthesis.Options{DisableTermination: true}, rng)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:       opts,
		dom:        dom,
		rng:        rng,
		model:      mobility.NewModel(dom),
		synth:      synth,
		trueCounts: make([]int, dom.Size()),
	}
	if opts.Method.IsPopulation() {
		e.users = core.NewUserTracker(opts.W)
	} else {
		e.pubWin = allocation.NewBudgetWindow(opts.W)
	}
	return e, nil
}

// Ledger returns the recorded privacy ledger (nil until Run or EnableLedger).
func (e *Engine) Ledger() *allocation.Ledger { return e.ledger }

// EnableLedger starts recording rounds for a timeline of length T.
func (e *Engine) EnableLedger(T int) { e.ledger = allocation.NewLedger(T) }

// Stats returns the run statistics so far.
func (e *Engine) Stats() Stats { return e.stats }

// Run processes a recorded stream and returns the synthetic database.
func (e *Engine) Run(stream *trajectory.Stream, name string) (*trajectory.Dataset, Stats) {
	if e.ledger == nil {
		e.EnableLedger(stream.T)
	}
	for t := 0; t < stream.T; t++ {
		e.ProcessTimestamp(t, stream.At(t), stream.Active[t])
	}
	return e.synth.Dataset(name, stream.T), e.stats
}

// Synthetic returns the current synthetic database.
func (e *Engine) Synthetic(name string, T int) *trajectory.Dataset {
	return e.synth.Dataset(name, T)
}

// ProcessTimestamp runs one LDP-IDS step: dissimilarity estimation, the
// publish-or-approximate decision, and Markov synthesis from the released
// vector.
func (e *Engine) ProcessTimestamp(t int, events []trajectory.Event, activeCount int) {
	e.stats.Timestamps++
	if e.users != nil {
		e.users.BeginTimestamp(t)
	}
	pool := e.eligible(events)
	if e.users != nil {
		e.users.QuitAbsent(t)
	}
	if len(pool) > 0 {
		if e.opts.Method.IsPopulation() {
			e.stepPopulation(t, pool)
		} else {
			e.stepBudget(t, pool)
		}
	} else if e.pubWin != nil {
		e.pubWin.Record(0)
	}

	// Synthesis: constant-size never-terminating streams from r_t.
	snap := e.model.Snapshot()
	if !e.synthInit {
		if activeCount > 0 {
			e.synth.Init(t, activeCount, snap)
			e.synthInit = true
		}
		return
	}
	e.synth.Step(t, activeCount /* ignored: termination disabled */, snap)
}

// eligible filters events to movement states (and active users for
// population methods). Enter/quit events carry no movement information for
// the baselines, but their users are admitted to the roster all the same.
func (e *Engine) eligible(events []trajectory.Event) []trajectory.Event {
	e.eligBuf = e.eligBuf[:0]
	for _, ev := range events {
		if e.users != nil && !e.users.Admit(ev.User) {
			continue
		}
		if _, ok := e.dom.Index(ev.State); !ok {
			continue
		}
		e.eligBuf = append(e.eligBuf, ev)
	}
	return e.eligBuf
}

// stepBudget implements LBD/LBA. Every present user spends ε/(2w) on the
// dissimilarity estimate; the publication half ε/2 is allocated per method.
func (e *Engine) stepBudget(t int, pool []trajectory.Event) {
	epsDis := e.opts.Epsilon / (2 * float64(e.opts.W))
	disEst := e.collect(pool, epsDis)
	e.recordRound(t, epsDis, pool)

	// Potential publication budget.
	var epsPub float64
	switch e.opts.Method {
	case LBD:
		remaining := e.opts.Epsilon/2 - e.pubWin.Used()
		if remaining < 0 {
			remaining = 0
		}
		epsPub = remaining / 2
	default: // LBA
		if e.nullify > 0 {
			e.nullify--
			e.pubWin.Record(0)
			return
		}
		if e.carry < e.opts.W {
			e.carry++
		}
		epsPub = e.opts.Epsilon / (2 * float64(e.opts.W)) * float64(e.carry)
	}
	if epsPub <= 0 {
		e.pubWin.Record(0)
		return
	}

	dis := e.dissimilarity(disEst, ldp.Variance(epsDis, len(pool)))
	errPub := ldp.Variance(epsPub, len(pool))
	if !e.bootstrapped || dis > errPub {
		pubEst := e.collect(pool, epsPub)
		e.model.SetAll(pubEst)
		e.bootstrapped = true
		e.stats.Publications++
		e.recordRound(t, epsPub, pool)
		e.pubWin.Record(epsPub)
		if e.opts.Method == LBA {
			e.nullify = e.carry - 1
			e.carry = 0
		}
	} else {
		e.pubWin.Record(0)
	}
}

// stepPopulation implements LPD/LPA. A 1/(2w) user share estimates the
// dissimilarity with the whole ε; publication user shares mirror the budget
// methods. Every sampled user rests for w timestamps.
func (e *Engine) stepPopulation(t int, pool []trajectory.Event) {
	w := float64(e.opts.W)
	nDis := int(float64(len(pool))/(2*w) + 0.5)
	if nDis < 1 {
		nDis = 1
	}
	if nDis > len(pool) {
		nDis = len(pool)
	}
	e.shuffle(pool)
	disGroup := pool[:nDis]
	rest := pool[nDis:]
	disEst := e.collect(disGroup, e.opts.Epsilon)
	e.markReported(t, disGroup)
	e.recordRound(t, e.opts.Epsilon, disGroup)

	// Publication group size per method.
	var nPub int
	switch e.opts.Method {
	case LPD:
		// Half of the remaining sampleable users this timestamp — the
		// population analogue of halving the remaining budget.
		nPub = len(rest) / 2
	default: // LPA
		if e.nullify > 0 {
			e.nullify--
			return
		}
		if e.carry < e.opts.W {
			e.carry++
		}
		nPub = int(float64(len(pool))/(2*w)*float64(e.carry) + 0.5)
		if nPub > len(rest) {
			nPub = len(rest)
		}
	}
	if nPub < 1 {
		return
	}

	dis := e.dissimilarity(disEst, ldp.Variance(e.opts.Epsilon, nDis))
	errPub := ldp.Variance(e.opts.Epsilon, nPub)
	if !e.bootstrapped || dis > errPub {
		pubGroup := rest[:nPub]
		pubEst := e.collect(pubGroup, e.opts.Epsilon)
		e.model.SetAll(pubEst)
		e.bootstrapped = true
		e.stats.Publications++
		e.markReported(t, pubGroup)
		e.recordRound(t, e.opts.Epsilon, pubGroup)
		if e.opts.Method == LPA {
			e.nullify = e.carry - 1
			e.carry = 0
		}
	}
}

// dissimilarity is the noise-corrected mean squared deviation between the
// fresh estimate and the released vector r: an unbiased estimate of the true
// approximation error, clamped at 0.
func (e *Engine) dissimilarity(est []float64, estVar float64) float64 {
	r := e.model.Freqs()
	sum := 0.0
	for i := range est {
		d := est[i] - r[i]
		sum += d * d
	}
	dis := sum/float64(len(est)) - estVar
	if dis < 0 {
		return 0
	}
	return dis
}

func (e *Engine) shuffle(pool []trajectory.Event) {
	e.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
}

func (e *Engine) markReported(t int, group []trajectory.Event) {
	if e.users == nil {
		return
	}
	for _, ev := range group {
		e.users.MarkReported(ev.User, t)
	}
	e.stats.TotalReports += len(group)
}

func (e *Engine) recordRound(t int, eps float64, group []trajectory.Event) {
	if e.users == nil {
		e.stats.TotalReports += len(group)
	}
	if e.ledger == nil {
		return
	}
	ids := make([]int, len(group))
	for i, ev := range group {
		ids[i] = ev.User
	}
	e.ledger.RecordRound(t, eps, ids)
}

// collect runs one OUE round over the group with budget eps.
func (e *Engine) collect(group []trajectory.Event, eps float64) []float64 {
	oracle := ldp.MustOUE(e.dom.Size(), eps)
	if e.opts.OracleMode == core.Aggregate {
		for i := range e.trueCounts {
			e.trueCounts[i] = 0
		}
		for _, ev := range group {
			idx, _ := e.dom.Index(ev.State)
			e.trueCounts[idx]++
		}
		return ldp.NewAggregateOracle(oracle).Collect(e.rng, e.trueCounts).EstimateAll()
	}
	agg := ldp.NewAggregator(oracle)
	for _, ev := range group {
		idx, _ := e.dom.Index(ev.State)
		agg.Add(oracle.Perturb(e.rng, idx))
	}
	return agg.EstimateAll()
}
