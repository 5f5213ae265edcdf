// Package remote is the distributed deployment composition of the library
// (paper §VII): an HTTP curator that runs the RetraSyn collection protocol
// against real clients over the network, and the matching device-side
// client. Perturbation happens strictly on the client; the curator only
// ever sees OUE reports, presence metadata and the public active count —
// the same trust model the paper assumes, now with the transport in place.
//
// Per-timestamp protocol, driven by a coordinator (e.g. a cron tick):
//
//  1. clients POST /v1/presence        — "I am present at timestamp t"
//     (only between rounds, and only for the t the next Plan opens)
//  2. coordinator POST /v1/plan        — curator recycles, samples, fixes ε_t
//  3. clients POST /v1/assignments     — "am I sampled, at what budget?"
//  4. sampled clients POST /v1/report  — locally perturbed OUE bits
//  5. coordinator POST /v1/finalize    — aggregate, DMU, synthesis step
//  6. anyone GET /v1/synthetic         — the current private release
//
// The curator can also re-discretize itself while serving: it sketches the
// density of its own released stream (privacy-free post-processing) and —
// periodically via CuratorConfig.RediscretizeEvery, or on demand via
// POST /v1/relayout — grows a fresh quadtree from the sketch and migrates
// its live state onto it between rounds.
//
// The round itself — sampling, debiasing, the DMU, roster / window / ledger
// bookkeeping, synthesis, migration — is internal/core's: the Curator drives
// one core.Engine through its Plan and Close halves and keeps only what is
// specific to the wire (the presence set, assignments, the open round's
// aggregate, report validation). The roster quits a silent device itself.
package remote

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/ldp"
	"retrasyn/internal/monitor"
	"retrasyn/internal/obs"
	"retrasyn/internal/pipeline"
	"retrasyn/internal/relayout"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// CuratorConfig configures a Curator: the engine's core.Config. The curator
// always runs the density tracker (POST /v1/relayout works without the
// periodic cadence) and the utility monitor, whose window defaults to W.
type CuratorConfig = core.Config

// Assignment is the curator's answer to a sampled (or skipped) client.
type Assignment struct {
	Report  bool    `json:"report"`
	Epsilon float64 `json:"epsilon"`
}

// Curator is the server-side protocol engine. All methods are safe for
// concurrent use (one mutex; handler work is short).
type Curator struct {
	division allocation.Division

	mu sync.Mutex
	// eng is the round core: timestamp ordering, roster, allocation
	// trackers, ledger, mobility model, synthesizer and the RNG. A round is
	// open — between Plan and Finalize — exactly while eng.Open() says so.
	eng *core.Engine
	ctl *relayout.Controller
	mon *monitor.Monitor // utility sentinel; run-scoped like reg

	// Wire state: who announced presence, and the open round's assignments
	// and partial aggregate.
	present        map[int]bool // users who announced presence for presentT
	presentT       int          // the t present is collected for; -1 while unpinned
	assignments    map[int]Assignment
	agg            *ldp.Aggregator
	oracle         *ldp.OUE
	folded         []int // users whose report was folded into agg
	presenceEvents int64
	idBuf          []int // Plan's pool scratch
	dupBuf         []int // admitLocked's duplicate-check scratch

	// Observability (always on, run-scoped — never checkpointed). reg is the
	// registry NewHandler serves at GET /metrics; the engine records its
	// stage-latency and budget series on it as shard 0.
	reg     *obs.Registry
	metrics curatorMetrics
	logger  *slog.Logger
	tracer  *slog.Logger
}

// NewCurator constructs the server-side engine.
func NewCurator(cfg CuratorConfig) (*Curator, error) {
	cfg.MonitorWindow = cmp.Or(cfg.MonitorWindow, cfg.W) // /v1/health needs the monitor: 0 means W
	reg := obs.NewRegistry()
	eng, err := core.NewWire(core.Options{Config: cfg, Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	// The density tracker and the utility monitor only read public data —
	// the released stream and the DP estimates — so they cost no budget and
	// cannot perturb the protocol.
	ctl, mon, err := core.NewLayoutControl(cfg, true, reg)
	if err != nil {
		return nil, err
	}
	c := &Curator{
		division: cfg.Division,
		eng:      eng,
		ctl:      ctl,
		mon:      mon,
		present:  make(map[int]bool),
		presentT: -1,
		reg:      reg,
		metrics:  newCuratorMetrics(reg),
		logger:   discardLogger(),
	}
	c.metrics.domainSize.Set(float64(eng.Domain().Size()))
	return c, nil
}

// EnableLedger records rounds for post-hoc privacy verification.
func (c *Curator) EnableLedger(T int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.eng.EnableLedger(T)
}

// Ledger returns the recorded ledger (nil unless enabled).
func (c *Curator) Ledger() *allocation.Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Ledger()
}

// PresenceBatch registers that users are present at timestamp t (have a
// transition state to contribute). The presence set belongs to one round:
// presence while a round is open, for a past timestamp, or for another t
// than the one the set is being collected for is rejected. Registration is a
// set operation, so the batch needs no all-or-nothing staging and the call
// is safely retryable — re-announcing a user is a no-op and is not
// double-counted.
func (c *Curator) PresenceBatch(users []int, t int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, open := c.eng.Open(); open {
		return fmt.Errorf("remote: presence for timestamp %d while round %d is open", t, c.eng.LastT())
	}
	if t <= c.eng.LastT() {
		return fmt.Errorf("remote: presence for closed timestamp %d (current %d)", t, c.eng.LastT())
	}
	if !c.presentForLocked(t) {
		return fmt.Errorf("remote: presence for timestamp %d while collecting for %d", t, c.presentT)
	}
	if len(users) > 0 {
		c.presentT = t
	}
	for _, user := range users {
		if !c.present[user] {
			c.present[user] = true
			c.presenceEvents++
			c.metrics.presenceEvents.Inc()
		}
	}
	c.metrics.presentUsers.Set(float64(len(c.present)))
	return nil
}

// PresenceEvents counts the accepted presence registrations since boot —
// the curator-side half of a replay harness's loss accounting.
func (c *Curator) PresenceEvents() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.presenceEvents
}

// presentForLocked reports whether the presence set may serve timestamp t:
// it is empty, unpinned (restored from a snapshot that did not record its
// timestamp) or collected for t. Called under c.mu.
func (c *Curator) presentForLocked(t int) bool {
	return len(c.present) == 0 || c.presentT < 0 || c.presentT == t
}

// Plan closes presence collection for timestamp t and opens the round: the
// engine recycles the window, quits the silent users, decides the round and
// samples; the sample becomes the per-user assignments. A presence set
// collected for another timestamp is refused, with nothing changed.
func (c *Curator) Plan(t int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.presentForLocked(t) {
		return c.roundError("plan", t, fmt.Errorf("remote: Plan(%d) with presence collected for timestamp %d", t, c.presentT))
	}
	ids := c.idBuf[:0]
	for id := range c.present {
		ids = append(ids, id)
	}
	if c.division == allocation.Population {
		// The sampler draws over the pool in the order given; map order is
		// random, sorted order makes the draw reproducible.
		slices.Sort(ids)
	}
	sampled, round, err := core.Plan(c.eng, t, ids, func(id int) int { return id }, nil, ids)
	c.idBuf = ids[:0]
	if err != nil {
		return c.roundError("plan", t, fmt.Errorf("remote: %w", err))
	}
	c.assignments = make(map[int]Assignment, len(sampled))
	for _, id := range sampled {
		c.assignments[id] = Assignment{Report: true, Epsilon: round.Epsilon}
	}
	c.oracle, c.agg = nil, nil
	if len(sampled) > 0 {
		c.oracle = ldp.MustOUE(c.eng.Domain().Size(), round.Epsilon)
		c.agg = ldp.NewAggregator(c.oracle)
	}
	c.metrics.openRound.Set(1)
	c.metrics.poolSize.Set(float64(round.Pool))
	c.metrics.sampledUsers.Set(float64(round.Sampled))
	c.metrics.pendingAsgn.Set(float64(len(c.assignments)))
	return nil
}

// openAt reports whether the round for timestamp t is open. Called under
// c.mu.
func (c *Curator) openAt(t int) bool {
	_, open := c.eng.Open()
	return open && t == c.eng.LastT()
}

// AssignmentsFor answers a batched assignment poll after Plan: one entry per
// requested user, index-aligned. Read-only, so safely retryable.
func (c *Curator) AssignmentsFor(users []int, t int) ([]Assignment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.openAt(t) {
		return nil, fmt.Errorf("remote: no open round for timestamp %d", t)
	}
	out := make([]Assignment, len(users))
	for i, u := range users {
		out[i] = c.assignments[u]
	}
	return out, nil
}

// admitLocked is the all-or-nothing gate of a report upload: the round for t
// is open and every uploading user was sampled, has not reported yet and
// appears once.
func (c *Curator) admitLocked(t int, users []int) error {
	if !c.openAt(t) {
		return fmt.Errorf("remote: report outside an open round")
	}
	var dup int
	if dup, c.dupBuf = core.FirstRepeat(users, func(u int) int { return u }, c.dupBuf); dup >= 0 {
		return fmt.Errorf("remote: batch entry %d: duplicate report for user %d", dup, users[dup])
	}
	for i, u := range users {
		if !c.assignments[u].Report {
			return fmt.Errorf("remote: batch entry %d: user %d was not sampled at timestamp %d", i, u, t)
		}
	}
	return nil
}

// foldedLocked books the users whose reports were just folded into the
// aggregate — one report per assignment. The engine hears about them at
// Finalize; until then a sampled-but-silent user is simply still assigned.
func (c *Curator) foldedLocked(users []int, took time.Duration) {
	for _, u := range users {
		delete(c.assignments, u)
	}
	c.folded = append(c.folded, users...)
	c.eng.ChargeModelConstruction(took)
	c.metrics.reports.Add(int64(len(users)))
	c.metrics.pendingAsgn.Set(float64(len(c.assignments)))
}

// BatchReport is one user's report given as an index list: the ascending
// (or any-order) indices of its 1-bits, each at most once.
type BatchReport struct {
	User int   `json:"user"`
	Ones []int `json:"ones"`
}

// ReportBatch ingests a batch of index-list reports: it packs them for the
// current domain (PackReportBatch rejects an out-of-domain or repeated index)
// and commits them like a packed upload. The upload is all-or-nothing; a
// rejected batch leaves the round untouched.
func (c *Curator) ReportBatch(t int, batch []BatchReport) error {
	// One domain read: the commit re-checks it under the round lock, so a
	// relayout landing after the packing is rejected cleanly.
	d := c.DomainSize()
	packed, err := PackReportBatch(batch, d)
	if err != nil {
		return err
	}
	return c.reportPacked(t, d, packed)
}

// PackedBatchReport is one user's entry in a bit-packed batched upload:
// Bits is the little-endian ⌈d/8⌉-byte dense report (base64 in JSON) that
// the curator folds with the word-parallel popcount network.
type PackedBatchReport struct {
	User int    `json:"user"`
	Bits []byte `json:"bits"`
}

// PackReportBatch converts a batch of index-list reports into the packed
// wire form for a domain of size d. It rejects an out-of-domain or repeated
// index, naming the entry and the index.
func PackReportBatch(batch []BatchReport, d int) ([]PackedBatchReport, error) {
	out := make([]PackedBatchReport, len(batch))
	for i, r := range batch {
		p, err := ldp.PackReport(r.Ones, d)
		if err != nil {
			return nil, fmt.Errorf("remote: batch entry %d (user %d): %w", i, r.User, err)
		}
		out[i] = PackedBatchReport{User: r.User, Bits: p.Bytes(d)}
	}
	return out, nil
}

// ReportPackedBatch ingests a bit-packed batched upload. Validation is
// all-or-nothing — open round, unique sampled users, and every payload
// exactly ⌈d/8⌉ bytes with no bits set beyond the domain — so a malformed
// entry yields a clean error instead of corrupting or panicking the fold.
// Each payload decodes straight into its fold-buffer row
// (ldp.UnpackReportBytesInto on a PackedBatch.Grow row) *outside* the round
// lock: only the commit — sampling validation plus the word-parallel fold —
// holds it, so a slow or hostile payload can't stall concurrent presence and
// assignment traffic. A relayout racing the decode is caught by the commit's
// domain re-check and rejected cleanly.
func (c *Curator) ReportPackedBatch(t int, batch []PackedBatchReport) error {
	return c.reportPacked(t, c.DomainSize(), batch)
}

// reportPacked splits a packed batch into the wire path's users and rows.
func (c *Curator) reportPacked(t, d int, batch []PackedBatchReport) error {
	users := make([]int, len(batch))
	bits := make([][]byte, len(batch))
	for i, r := range batch {
		users[i], bits[i] = r.User, r.Bits
	}
	return c.reportPackedWire(t, d, users, bits)
}

// reportPackedWire is the binary-frame ingest path: bits rows alias the
// request body and decode straight into the fold buffer outside the round
// lock. The frame self-declares the domain it was encoded for, so a stale
// client mid-relayout is rejected before any row is touched.
func (c *Curator) reportPackedWire(t, d int, users []int, bits [][]byte) error {
	if cd := c.DomainSize(); d != cd {
		return fmt.Errorf("remote: packed frame encoded for domain %d, curator domain is %d", d, cd)
	}
	packed := ldp.NewPackedBatch(d, len(users))
	for i, u := range users {
		if err := ldp.UnpackReportBytesInto(bits[i], d, packed.Grow()); err != nil {
			return fmt.Errorf("remote: batch entry %d (user %d): %w", i, u, err)
		}
	}
	return c.commitPackedBatch(t, d, users, packed)
}

// commitPackedBatch applies a pre-decoded packed batch under the round
// lock: open-round and domain re-checks, all-or-nothing sampling
// validation, then the word-parallel popcount fold (charged to the
// model-construction stage, the same bucket the in-process pipeline
// charges aggregation to) and per-user bookkeeping.
func (c *Curator) commitPackedBatch(t, d int, users []int, packed *ldp.PackedBatch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.admitLocked(t, users); err != nil {
		return err
	}
	if cd := c.eng.Domain().Size(); d != cd {
		// A relayout landed between decode and commit; the rows were packed
		// for the old bit layout and must not fold into the new one.
		return fmt.Errorf("remote: packed batch encoded for domain %d, curator domain is %d", d, cd)
	}
	if len(users) == 0 {
		return nil // nothing to fold, and a round that samples nobody has no aggregate
	}
	start := time.Now()
	c.agg.AddPackedBatch(packed, ldp.DefaultWorkers())
	c.foldedLocked(users, time.Since(start))
	return nil
}

// Finalize closes timestamp t: the engine debiases whatever reports arrived,
// applies the DMU update and advances the synthesizer toward activeCount (the
// public population size); then the released stream is observed and, when
// due, the layout migrates.
func (c *Curator) Finalize(t, activeCount int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	round, _ := c.eng.Open()
	if !c.openAt(t) {
		return c.roundError("finalize", t, fmt.Errorf("remote: Finalize(%d) without a matching Plan", t))
	}
	var col core.Collected
	if len(c.folded) > 0 {
		col = core.Collected{
			Aggregate: c.agg,
			ErrUpd:    c.oracle.Variance(c.agg.N()),
			Reporters: c.folded,
		}
	}
	res, err := c.eng.Close(t, col, activeCount)
	if err != nil {
		return c.roundError("finalize", t, fmt.Errorf("remote: %w", err))
	}
	c.present, c.presentT = make(map[int]bool), -1
	c.assignments, c.oracle, c.agg = nil, nil, nil
	c.folded = c.folded[:0]
	if res.Reported {
		c.metrics.rounds.Inc()
		c.metrics.reportCount.ObserveValue(int64(res.NumReporters))
		c.metrics.sigRatio.Set(res.SigRatio)
		c.metrics.significant.Set(float64(res.NumSignificant))
	}
	c.metrics.openRound.Set(0)
	c.metrics.pendingAsgn.Set(0)

	ch, err := core.AdaptLayout([]*core.Engine{c.eng}, c.ctl, c.mon, t,
		c.metrics.roundErrors.Value()+c.metrics.relayoutErrors.Value())
	if err != nil {
		return c.relayoutError(t, fmt.Errorf("remote: periodic relayout at timestamp %d: %w", t, err))
	}
	c.noteLayoutLocked(ch)
	c.traceRound(round, res, ch)
	return nil
}

// Health snapshots the utility monitor plus run identity for GET /v1/health.
func (c *Curator) Health() HealthReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return HealthReport{
		Health:     c.mon.Health(),
		T:          c.eng.LastT(),
		Rounds:     c.eng.Stats().Rounds,
		Generation: c.eng.Generation(),
		Window:     c.mon.Window(),
		Trigger:    string(c.ctl.Trigger()),
	}
}

// HealthReport is the GET /v1/health payload: the monitor's verdict plus
// enough run identity to correlate it with traces and stats.
type HealthReport struct {
	monitor.Health
	// T is the last closed timestamp (-1 before the first round).
	T int `json:"t"`
	// Rounds counts reported rounds since boot.
	Rounds int `json:"rounds"`
	// Generation counts layout migrations applied since boot.
	Generation int `json:"generation"`
	// Window is the monitor's release-sketch length in timestamps.
	Window int `json:"monitor_window"`
	// Trigger is the relayout trigger policy in effect.
	Trigger string `json:"trigger"`
}

// RelayoutStatus reports the outcome of a relayout request and the current
// layout identity.
type RelayoutStatus struct {
	// Switched is true when the curator migrated onto a rebuilt layout.
	Switched bool `json:"switched"`
	// Distance is the layout distance of the most recent proposal (0 when
	// the sketch was empty or the rebuild reproduced the current layout).
	Distance float64 `json:"distance"`
	// Generation counts the migrations applied since boot.
	Generation int `json:"generation"`
	// Cells and DomainSize describe the layout now in effect.
	Cells       int    `json:"cells"`
	DomainSize  int    `json:"domain_size"`
	Fingerprint string `json:"fingerprint"`
	// TriggerFired is the trigger policy's verdict at the most recent
	// proposal (false when no proposal was evaluated — empty sketch or
	// unchanged fingerprint). It can differ from Switched only under force.
	TriggerFired bool `json:"trigger_fired"`
	// Alarmed reports whether the utility monitor was alarming when the
	// proposal was decided (always false under the geometric policy).
	Alarmed bool `json:"alarmed"`
}

// statusLocked describes the layout now in effect plus what ch decided.
func (c *Curator) statusLocked(ch core.LayoutChange) RelayoutStatus {
	sp := c.eng.Space()
	return RelayoutStatus{
		Switched:     ch.Switched,
		Distance:     ch.Proposal.Distance,
		Generation:   c.eng.Generation(),
		Cells:        sp.NumCells(),
		DomainSize:   c.eng.Domain().Size(),
		Fingerprint:  sp.Fingerprint(),
		TriggerFired: ch.Proposal.Switch,
		Alarmed:      ch.Proposal.Alarmed,
	}
}

// noteLayoutLocked publishes an applied migration on the curator's gauges.
func (c *Curator) noteLayoutLocked(ch core.LayoutChange) {
	if !ch.Switched {
		return
	}
	c.metrics.generation.Set(float64(c.eng.Generation()))
	c.metrics.domainSize.Set(float64(c.eng.Domain().Size()))
	c.metrics.migration.Observe(ch.Migration)
}

// Relayout rebuilds the spatial layout from the released-stream density
// sketch and migrates the curator onto it. With force the layout switches
// whenever the rebuilt tree differs from the current layout at all;
// otherwise the configured distance threshold applies. Relayout is rejected
// while a collection round is open (between Plan and Finalize) — the open
// round's assignments and partial aggregate are indexed by the current
// domain.
func (c *Curator) Relayout(force bool) (RelayoutStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.eng.LastT()
	if _, open := c.eng.Open(); open {
		return c.statusLocked(core.LayoutChange{}), c.relayoutError(t, fmt.Errorf("remote: relayout while a round is open — finalize timestamp %d first", t))
	}
	ch, err := core.Rediscretize([]*core.Engine{c.eng}, c.ctl, c.mon, force)
	c.noteLayoutLocked(ch)
	return c.statusLocked(ch), c.relayoutError(t, err)
}

// LayoutStatus returns the current layout identity without proposing a
// rebuild (served on /v1/stats).
func (c *Curator) LayoutStatus() RelayoutStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(core.LayoutChange{Proposal: relayout.Proposal{Distance: c.ctl.LastDistance()}})
}

// Synthetic returns the current private release.
func (c *Curator) Synthetic(name string) *trajectory.Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Synthetic(name, c.eng.LastT()+1)
}

// Stats summarizes the curator's activity: rounds that collected reports,
// and reports folded (those of the open round included).
func (c *Curator) Stats() (rounds, reports int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.eng.Stats()
	return st.Rounds, st.TotalReports + len(c.folded)
}

// Timings returns the accumulated per-component wall time of the pipeline
// stages (the Table V decomposition, minus the client-side perturbation the
// curator never sees).
func (c *Curator) Timings() pipeline.Timings {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Stats().Timings
}

// Domain exposes the transition domain clients need for encoding. It
// changes on relayout: clients must re-fetch it after a migration (the
// assignment/report cycle rejects stale-domain bits anyway).
func (c *Curator) Domain() *transition.Domain {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Domain()
}

// DomainSize returns the size of the current transition domain — the d a
// packed report must be encoded against. It takes the lock only briefly,
// so wire decoders can snapshot d without stalling an open round.
func (c *Curator) DomainSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eng.Domain().Size()
}
