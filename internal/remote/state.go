package remote

import (
	"fmt"
	"maps"
	"slices"

	"retrasyn/internal/core"
	"retrasyn/internal/ldp"
	"retrasyn/internal/relayout"
)

// Curator checkpointing: Snapshot exports the complete protocol and model
// state — including a round that is currently open — so the curator process
// can be restarted (or migrated) without losing the stream. A restored
// curator continues the protocol with releases bit-identical to an
// uninterrupted one.

// CuratorStateVersion guards the snapshot format. Version 2 embeds the round
// core's own checkpoint (core.EngineState) where version 1 carried the
// curator's private copy of the model, roster and trackers; version-1 blobs
// are rejected, not converted.
const CuratorStateVersion = 2

// CuratorState is the serializable processing state of a Curator: the
// engine's state — everything a round owns, the open round's plan included —
// plus the wire state around it and the re-discretization controller.
type CuratorState struct {
	Version int `json:"version"`
	// Engine is the round core's checkpoint. Its config fingerprint guards
	// against restoring into a curator built with a different config, and it
	// records the layout the curator had migrated onto.
	Engine *core.EngineState `json:"engine"`
	// Relayout carries the density-sketch controller, so rebuild decisions
	// after a restore match the uninterrupted curator exactly.
	Relayout *relayout.ControllerState `json:"relayout,omitempty"`

	Present map[int]bool `json:"present"`
	// PresentT is the timestamp Present is collected for, recorded when the
	// set is non-empty. A snapshot without it leaves the set unpinned: the
	// next announcement or Plan claims it, as before the field existed.
	PresentT *int `json:"present_t,omitempty"`

	// The open round's wire state (all empty between rounds): assignments
	// not yet answered, the users whose reports were folded, and the partial
	// aggregate. AggCounts is nil when the round samples nobody. (Older
	// checkpoints may also carry "folded_packed" or "prev_present";
	// decoding ignores both.)
	Assignments map[int]Assignment `json:"assignments,omitempty"`
	Folded      []int              `json:"folded,omitempty"`
	AggCounts   []int              `json:"agg_counts,omitempty"`
	AggN        int                `json:"agg_n,omitempty"`
}

// Snapshot exports the curator's complete state as a deep copy; handler
// traffic continuing after the call never mutates it.
func (c *Curator) Snapshot() (*CuratorState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	eng, err := c.eng.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	ctlState := c.ctl.State()
	st := &CuratorState{
		Version:     CuratorStateVersion,
		Engine:      eng,
		Relayout:    &ctlState,
		Present:     maps.Clone(c.present),
		Assignments: maps.Clone(c.assignments),
		Folded:      slices.Clone(c.folded),
	}
	if len(c.present) > 0 && c.presentT >= 0 {
		presentT := c.presentT
		st.PresentT = &presentT
	}
	if c.agg != nil {
		st.AggCounts = c.agg.Counts()
		st.AggN = c.agg.N()
	}
	return st, nil
}

// Restore replaces the curator's state with a previously exported snapshot.
// The curator must have been constructed with a config matching the
// snapshot's fingerprint.
func (c *Curator) Restore(st *CuratorState) error {
	if st == nil {
		return fmt.Errorf("remote: Restore on nil state")
	}
	if st.Version != CuratorStateVersion {
		return fmt.Errorf("remote: snapshot version %d, curator supports only version %d", st.Version, CuratorStateVersion)
	}
	if st.Engine == nil {
		return fmt.Errorf("remote: snapshot carries no engine state")
	}
	if st.Engine.Open == nil && (st.Assignments != nil || st.AggCounts != nil || len(st.Folded) > 0) {
		return fmt.Errorf("remote: snapshot carries an open round's reports but no open round")
	}
	if st.AggCounts != nil && !(st.Engine.Open.Epsilon > 0) {
		return fmt.Errorf("remote: snapshot carries an aggregate for a round that collects nothing")
	}
	if st.AggN != len(st.Folded) {
		return fmt.Errorf("remote: snapshot aggregate holds %d reports, %d users folded", st.AggN, len(st.Folded))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The engine checks the config fingerprint and puts itself on the layout
	// the snapshot was taken at; everything layout-sized loads after it.
	if err := c.eng.Restore(st.Engine); err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	if st.Relayout != nil {
		if err := c.ctl.Restore(*st.Relayout); err != nil {
			return err
		}
	}
	d := c.eng.Domain().Size()
	if st.AggCounts != nil && len(st.AggCounts) != d {
		return fmt.Errorf("remote: snapshot aggregate length %d ≠ domain %d", len(st.AggCounts), d)
	}
	presentT := -1
	if st.PresentT != nil && len(st.Present) > 0 {
		// An open round's set was collected for it; a closed one's for a
		// timestamp still to come.
		presentT = *st.PresentT
		_, open := c.eng.Open()
		if last := c.eng.LastT(); presentT < last || (presentT == last) != open {
			return fmt.Errorf("remote: snapshot presence set for timestamp %d does not follow timestamp %d", presentT, last)
		}
	}
	c.present, c.presentT = make(map[int]bool, len(st.Present)), presentT
	maps.Copy(c.present, st.Present)
	c.folded = append(c.folded[:0], st.Folded...)
	c.assignments = maps.Clone(st.Assignments)
	c.oracle, c.agg = nil, nil
	if st.AggCounts != nil {
		round, _ := c.eng.Open()
		c.oracle = ldp.MustOUE(d, round.Epsilon)
		c.agg = ldp.NewAggregator(c.oracle)
		c.agg.AddCounts(st.AggCounts, st.AggN)
	}
	c.metrics.generation.Set(float64(c.eng.Generation()))
	c.metrics.domainSize.Set(float64(d))
	return nil
}
