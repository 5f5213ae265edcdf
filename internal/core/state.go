package core

import (
	"encoding/json"
	"fmt"

	"strings"

	"retrasyn/internal/allocation"
	"retrasyn/internal/mobility"
	"retrasyn/internal/relayout"
	"retrasyn/internal/synthesis"
)

// Engine checkpointing: Snapshot exports the complete processing state — the
// mobility model, allocation trackers, user lifecycle, synthesizer streams
// and the RNG position — so a curator can checkpoint mid-stream, crash, and
// resume with releases bit-identical to an uninterrupted run. The golden
// round-trip tests pin this property for every engine configuration.
//
// The state is JSON-serializable; EngineStateVersion guards the format and
// the embedded config fingerprint guards against restoring into an engine
// built with incompatible options.

// EngineStateVersion is the checkpoint format version; Restore rejects
// snapshots from a different version.
const EngineStateVersion = 1

// ConfigFingerprint captures the Options fields that determine the engine's
// randomness stream and domain layout. Restoring a snapshot into an engine
// whose fingerprint differs would silently corrupt releases, so Restore
// requires an exact match. Two fields are retired and always written as 0:
// Oracle (1 = OLH, 2 = GRR) and SynthWorkers (the parallel synthesis step's
// workers). A checkpoint naming OLH, GRR or more than one worker is
// rejected; one worker ran the serial step, so it restores like 0.
type ConfigFingerprint struct {
	// Discretizer is the stable layout fingerprint of the spatial backend
	// (spatial.Discretizer.Fingerprint). Checkpoints written before the
	// pluggable-discretization refactor omit it; Restore accepts those
	// legacy snapshots when the engine runs the uniform grid, the only
	// backend that existed then.
	Discretizer  string  `json:"discretizer,omitempty"`
	DomainSize   int     `json:"domain_size"`
	Epsilon      float64 `json:"epsilon"`
	W            int     `json:"w"`
	Division     int     `json:"division"`
	Lambda       float64 `json:"lambda"`
	Kappa        int     `json:"kappa"`
	DisableDMU   bool    `json:"disable_dmu"`
	DisableEQ    bool    `json:"disable_eq"`
	OracleMode   int     `json:"oracle_mode"`
	Oracle       int     `json:"oracle"`        // retired: 1 = OLH, 2 = GRR; always 0
	SynthWorkers int     `json:"synth_workers"` // retired: always 0
	Seed         uint64  `json:"seed"`
}

// fingerprint returns the boot-time config fingerprint. It is captured at
// New and deliberately frozen: online re-discretization changes the current
// layout (recorded separately via EngineState.Generation/Layout) but not the
// configuration the engine was built with, so checkpoints taken before and
// after migrations all validate against the same construction options.
func (e *Engine) fingerprint() ConfigFingerprint { return e.bootFP }

func (e *Engine) configFingerprint() ConfigFingerprint {
	return ConfigFingerprint{
		Discretizer: e.opts.Space.Fingerprint(),
		DomainSize:  e.dom.Size(),
		Epsilon:     e.opts.Epsilon,
		W:           e.opts.W,
		Division:    int(e.opts.Division),
		Lambda:      e.opts.Lambda,
		Kappa:       e.opts.Kappa,
		DisableDMU:  e.opts.DisableDMU,
		DisableEQ:   e.opts.DisableEQ,
		OracleMode:  int(e.opts.OracleMode),
		Seed:        e.opts.Seed,
	}
}

// EngineState is the serializable processing state of an Engine.
type EngineState struct {
	Version int               `json:"version"`
	Config  ConfigFingerprint `json:"config"`

	// Generation counts the layout migrations applied before the snapshot;
	// when > 0, Layout describes the discretization currently in effect and
	// LayoutFingerprint pins its identity, so Restore can rebuild the layout
	// an engine migrated onto at any point of its life.
	Generation        int              `json:"generation,omitempty"`
	Layout            *relayout.Layout `json:"layout,omitempty"`
	LayoutFingerprint string           `json:"layout_fp,omitempty"`

	LastT int `json:"last_t"`
	// Open is the round between Plan and Close, when the snapshot was taken
	// inside one (only drivers that collect over the network ever do; older
	// checkpoints simply lack the field).
	Open  *OpenRound `json:"open,omitempty"`
	Stats RunStats   `json:"stats"`
	RNG   []byte     `json:"rng"`

	Model        mobility.State `json:"model"`
	Bootstrapped bool           `json:"bootstrapped"`

	Dev          allocation.DevState           `json:"dev"`
	Sig          allocation.SigState           `json:"sig"`
	BudgetWindow *allocation.BudgetWindowState `json:"budget_window,omitempty"`
	Users        *UserTrackerState             `json:"users,omitempty"`

	Synth  synthesis.State    `json:"synth"`
	Ledger *allocation.Ledger `json:"ledger,omitempty"`
}

// Snapshot exports the engine's complete processing state. The snapshot is a
// deep copy: continuing to process timestamps never mutates it. The engine
// must be quiescent (no call in flight); a round may be open, in which case
// the driver's own snapshot must carry what it collected so far.
func (e *Engine) Snapshot() (*EngineState, error) {
	rngState, err := e.rng.State()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot rng: %w", err)
	}
	st := &EngineState{
		Version:      EngineStateVersion,
		Config:       e.fingerprint(),
		Generation:   e.generation,
		LastT:        e.lastT,
		Stats:        e.stats,
		RNG:          rngState,
		Model:        e.model.State(),
		Bootstrapped: e.updater.Bootstrapped(),
		Dev:          e.dev.State(),
		Sig:          e.sig.State(),
		Synth:        e.synth.State(),
		Ledger:       e.ledger.Clone(),
	}
	if e.open != nil {
		open := *e.open
		st.Open = &open
	}
	if e.budgetWin != nil {
		bw := e.budgetWin.State()
		st.BudgetWindow = &bw
	}
	if e.users != nil {
		us := e.users.State()
		st.Users = &us
	}
	if e.generation > 0 {
		l, err := relayout.LayoutOf(e.space)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot layout: %w", err)
		}
		st.Layout = &l
		st.LayoutFingerprint = e.space.Fingerprint()
	}
	return st, nil
}

// Restore replaces the engine's processing state with a previously exported
// snapshot. The engine must have been constructed with options matching the
// snapshot's config fingerprint — typically a fresh New(opts) with the same
// opts as the snapshotted engine. After Restore, feeding the same events
// produces releases bit-identical to the uninterrupted run.
func (e *Engine) Restore(st *EngineState) error {
	if st == nil {
		return fmt.Errorf("core: Restore on nil state")
	}
	if st.Version != EngineStateVersion {
		return fmt.Errorf("core: snapshot version %d, engine supports %d", st.Version, EngineStateVersion)
	}
	got, want := e.fingerprint(), st.Config
	if want.Discretizer == "" && strings.HasPrefix(got.Discretizer, "uniform:") {
		// Legacy checkpoint from a pre-spatial build: those engines only
		// ever ran the uniform grid, so accept iff this engine's backend is
		// a uniform layout too (the remaining fields — domain size included
		// — still must match).
		want.Discretizer = got.Discretizer
	}
	if want.SynthWorkers == 1 {
		want.SynthWorkers = 0 // one worker ran the serial step
	}
	if got != want {
		return fmt.Errorf("core: snapshot config %+v does not match engine config %+v", want, got)
	}
	if (st.BudgetWindow != nil) != (e.budgetWin != nil) {
		return fmt.Errorf("core: snapshot division state does not match engine division")
	}
	if (st.Users != nil) != (e.users != nil) {
		return fmt.Errorf("core: snapshot user-tracker state does not match engine division")
	}
	// Put the engine on the layout the snapshot was taken at before loading
	// the layout-sized state vectors: a migrated snapshot carries the layout
	// it was running on, a generation-0 snapshot means the boot layout.
	switch {
	case st.Generation > 0:
		if st.Layout == nil {
			return fmt.Errorf("core: snapshot at layout generation %d carries no layout", st.Generation)
		}
		sp, err := relayout.FromLayout(*st.Layout)
		if err != nil {
			return fmt.Errorf("core: restore layout: %w", err)
		}
		if st.LayoutFingerprint != "" && sp.Fingerprint() != st.LayoutFingerprint {
			return fmt.Errorf("core: restored layout fingerprint %s ≠ snapshot %s — corrupt checkpoint",
				sp.Fingerprint(), st.LayoutFingerprint)
		}
		e.adoptSpace(sp, st.Generation)
	case e.generation > 0:
		e.adoptSpace(e.opts.Space, 0)
	}
	if err := e.rng.SetState(st.RNG); err != nil {
		return fmt.Errorf("core: restore rng: %w", err)
	}
	if err := e.model.Restore(st.Model); err != nil {
		return err
	}
	e.updater.SetBootstrapped(st.Bootstrapped)
	e.dev.Restore(st.Dev)
	e.sig.Restore(st.Sig)
	if st.BudgetWindow != nil {
		if err := e.budgetWin.Restore(*st.BudgetWindow); err != nil {
			return err
		}
	}
	if st.Users != nil {
		if err := e.users.Restore(*st.Users); err != nil {
			return err
		}
	}
	e.synth.Restore(st.Synth)
	e.lastT = st.LastT
	e.open = nil
	if st.Open != nil {
		open := *st.Open
		e.open = &open
	}
	e.stats = st.Stats
	// Stage-latency metrics are per-round deltas off the cumulative timings;
	// re-baseline so the first post-restore round doesn't charge the donor's
	// whole pre-checkpoint runtime as one observation.
	e.lastTimings = st.Stats.Timings
	e.ledger = st.Ledger.Clone()
	return nil
}

// SnapshotState exports the engine state as an opaque JSON blob, so the
// facade can checkpoint its shards without knowing the state layout.
func (e *Engine) SnapshotState() (json.RawMessage, error) {
	st, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(st)
}

// RestoreState loads a blob written by SnapshotState.
func (e *Engine) RestoreState(raw json.RawMessage) error {
	var st EngineState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("core: decode snapshot: %w", err)
	}
	return e.Restore(&st)
}
