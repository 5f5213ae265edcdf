// Package synthesis implements RetraSyn's real-time trajectory generator
// (paper §III-D): at every timestamp each live synthetic stream either
// terminates — with the length-reweighted quitting probability of Eq. 8 —
// or extends by one cell drawn from the Markov movement distribution; then
// the synthetic population is resized to match the (publicly known) number
// of active real users, appending new streams started from the entering
// distribution E and terminating surplus streams weighted by the quitting
// distribution Q.
//
// Memory layout: live streams are struct-of-arrays in release order (start
// timestamp, cell buffer ending at the current cell), compacted in place by
// each Step; buffers of ended streams are recycled, so a warmed synthesizer
// allocates nothing per stream. An ended stream is copied once into an
// append-only arena of fixed-size chunks — 4 bytes per point plus 8 per
// stream, no slack. Dataset and State slice the arena (copying only the
// recycled live buffers), and Relayout remaps it copy-on-write, so nothing
// handed out ever changes.
package synthesis

import (
	"fmt"
	"math"
	"sort"

	"retrasyn/internal/ldp"
	"retrasyn/internal/mobility"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

// Options configures a Synthesizer.
type Options struct {
	// Lambda is the termination restriction factor λ of Eq. 8; the paper sets
	// it to the dataset's average trajectory length. Must be > 0 unless
	// DisableTermination is set.
	Lambda float64
	// DisableTermination turns off stream quitting and size adjustment (the
	// NoEQ ablation and the LDP-IDS baselines): streams never terminate, and
	// the population is fixed at initialization.
	DisableTermination bool
	// MaxQuitProb caps the reweighted quit probability of Eq. 8 — ℓ/λ grows
	// without bound, so an explicit ceiling keeps the probability valid.
	// Defaults to 1.
	MaxQuitProb float64
}

// Synthesizer owns the evolving synthetic database T_syn. It is not safe
// for concurrent use; the Datasets and States it returns are, since they
// never change afterwards.
type Synthesizer struct {
	sp   spatial.Discretizer
	opts Options
	rng  ldp.Rand

	// Live streams in release order: stream i started at liveStart[i] and
	// its current cell is the last element of liveCells[i].
	liveStart []int
	liveCells [][]spatial.Cell
	spare     [][]spatial.Cell // emptied buffers of ended streams

	done history // completed streams in completion order

	keys   keyOrder // terminate's sampling keys, reused across rounds
	doomed []bool   // terminate's selection mask, reused across rounds

	started   bool
	now       int // last processed timestamp
	stepCount int // steps processed (carried in State)
}

// New creates a synthesizer over the spatial discretization sp.
func New(sp spatial.Discretizer, opts Options, rng ldp.Rand) (*Synthesizer, error) {
	if opts.MaxQuitProb == 0 {
		opts.MaxQuitProb = 1
	}
	if opts.MaxQuitProb < 0 || opts.MaxQuitProb > 1 {
		return nil, fmt.Errorf("synthesis: MaxQuitProb %v outside (0,1]", opts.MaxQuitProb)
	}
	if !opts.DisableTermination && !(opts.Lambda > 0) {
		return nil, fmt.Errorf("synthesis: Lambda must be > 0, got %v", opts.Lambda)
	}
	return &Synthesizer{sp: sp, opts: opts, rng: rng}, nil
}

// ActiveCount returns the number of live synthetic streams.
func (s *Synthesizer) ActiveCount() int { return len(s.liveCells) }

// ActiveCells appends the current (latest) cell of every live stream to buf
// in stream order and returns it — the released positions at the current
// timestamp, which online re-discretization sketches density from.
func (s *Synthesizer) ActiveCells(buf []spatial.Cell) []spatial.Cell {
	for _, cells := range s.liveCells {
		buf = append(buf, cells[len(cells)-1])
	}
	return buf
}

// Relayout switches the synthesizer onto a new spatial discretization.
// When mapCell is non-nil every stored cell — in-flight streams and the
// completed history alike — is remapped through it (online re-discretization
// passes the max-overlap cell map), keeping the released database coherent
// in the new layout; the history is rewritten into fresh chunks, so releases
// handed out before the migration keep their old-layout cells. A nil
// mapCell only swaps the space (checkpoint restore, where the restored
// streams already carry new-layout cells).
func (s *Synthesizer) Relayout(sp spatial.Discretizer, mapCell func(spatial.Cell) spatial.Cell) {
	s.sp = sp
	if mapCell == nil {
		return
	}
	for _, cells := range s.liveCells {
		for i, c := range cells {
			cells[i] = mapCell(c)
		}
	}
	s.done.remap(mapCell)
}

// Init seeds the synthetic database at timestamp t with target streams whose
// starting cells are drawn from the snapshot's entering distribution (or
// uniformly, for move-only models — the NoEQ/baseline initialization the
// paper describes as "randomly initialized").
func (s *Synthesizer) Init(t, target int, snap *mobility.Snapshot) {
	s.started = true
	s.now = t
	for i := 0; i < target; i++ {
		s.spawn(t, snap)
	}
}

func (s *Synthesizer) spawn(t int, snap *mobility.Snapshot) {
	var c spatial.Cell
	if s.opts.DisableTermination {
		c = spatial.Cell(s.rng.IntN(s.sp.NumCells()))
	} else {
		c = snap.SampleEnter(s.rng)
	}
	var buf []spatial.Cell
	if n := len(s.spare); n > 0 {
		buf, s.spare = s.spare[n-1], s.spare[:n-1]
	}
	s.liveStart = append(s.liveStart, t)
	s.liveCells = append(s.liveCells, append(buf, c))
}

// finish moves a stream's cells into the completed history and recycles its
// buffer. Streams with no cells leave no trace in the release.
func (s *Synthesizer) finish(start int, cells, buf []spatial.Cell) {
	if len(cells) > 0 {
		s.done.add(start, cells)
	}
	s.spare = append(s.spare, buf[:0])
}

// Step advances the synthetic database to timestamp t (which must be the
// successor of the last processed timestamp): new point generation followed
// by size adjustment toward target. If the synthesizer has not been
// initialized yet, Step initializes it at t with target streams.
func (s *Synthesizer) Step(t, target int, snap *mobility.Snapshot) {
	if !s.started {
		s.Init(t, target, snap)
		return
	}
	s.now = t
	s.stepCount++

	// Phase 1 — new point generation (Eq. 8 termination + Markov move).
	keep := 0
	for i, cells := range s.liveCells {
		last := cells[len(cells)-1]
		if !s.opts.DisableTermination {
			p := float64(len(cells)) / s.opts.Lambda * snap.QuitProb(last)
			if p > s.opts.MaxQuitProb {
				p = s.opts.MaxQuitProb
			}
			if ldp.Bernoulli(s.rng, p) {
				s.finish(s.liveStart[i], cells, cells)
				continue
			}
		}
		s.liveStart[keep] = s.liveStart[i]
		s.liveCells[keep] = append(cells, snap.SampleMove(s.rng, last))
		keep++
	}
	s.truncateLive(keep)

	// Phase 2 — size adjustment.
	if s.opts.DisableTermination {
		return
	}
	switch {
	case target > len(s.liveCells):
		for len(s.liveCells) < target {
			s.spawn(t, snap)
		}
	case target < len(s.liveCells):
		s.terminate(len(s.liveCells)-target, snap)
	}
}

// truncateLive drops the live streams from index n on, whose buffers have
// already gone to the spare list.
func (s *Synthesizer) truncateLive(n int) {
	clear(s.liveCells[n:])
	s.liveStart = s.liveStart[:n]
	s.liveCells = s.liveCells[:n]
}

// keyed is one live stream's A-Res sampling key.
type keyed struct {
	idx int
	key float64
}

// keyOrder sorts keys in descending order with sort.Sort: the same pdqsort
// as sort.Slice, so ties (zero-weight streams' keys underflow to exactly 0)
// break identically, minus sort.Slice's reflection allocations.
type keyOrder []keyed

func (k *keyOrder) Len() int           { return len(*k) }
func (k *keyOrder) Less(a, b int) bool { return (*k)[a].key > (*k)[b].key }
func (k *keyOrder) Swap(a, b int)      { (*k)[a], (*k)[b] = (*k)[b], (*k)[a] }

// terminate removes k streams, weighted by the quitting distribution over
// their most recent locations (weighted sampling without replacement via
// exponential keys). Streams whose last cell carries no quit mass still get
// a small floor weight so termination always succeeds. Terminated streams
// drop the point appended earlier in the same Step — a stream terminated at
// timestamp t has its final location at t−1, exactly like an Eq. 8 quit —
// which keeps the per-timestamp point count of T_syn equal to the target.
func (s *Synthesizer) terminate(k int, snap *mobility.Snapshot) {
	const floor = 1e-12
	s.keys = s.keys[:0]
	for i, cells := range s.liveCells {
		w := snap.QuitWeight(cells[len(cells)-1]) + floor
		u := s.rng.Float64()
		for u == 0 {
			u = s.rng.Float64()
		}
		// A-Res weighted reservoir key: u^(1/w); larger keys win.
		s.keys = append(s.keys, keyed{idx: i, key: math.Pow(u, 1/w)})
	}
	sort.Sort(&s.keys)
	s.doomed = append(s.doomed[:0], make([]bool, len(s.liveCells))...)
	for _, kd := range s.keys[:min(k, len(s.keys))] {
		s.doomed[kd.idx] = true
	}
	keep := 0
	for i, cells := range s.liveCells {
		if s.doomed[i] {
			s.finish(s.liveStart[i], cells[:len(cells)-1], cells)
			continue
		}
		s.liveStart[keep] = s.liveStart[i]
		s.liveCells[keep] = cells
		keep++
	}
	s.truncateLive(keep)
}

// State is the serializable form of a Synthesizer, used by engine
// checkpoints. Active and Completed streams reuse the CellTrajectory shape.
type State struct {
	Active    []trajectory.CellTrajectory `json:"active"`
	Completed []trajectory.CellTrajectory `json:"completed"`
	Started   bool                        `json:"started"`
	Now       int                         `json:"now"`
	StepCount int                         `json:"step_count"`
}

// State exports the synthesizer's mutable state. The export is stable:
// subsequent Steps and Relayouts never mutate it. Completed streams share
// the immutable history arena; live streams are copied.
func (s *Synthesizer) State() State {
	return State{
		Active:    s.appendLive(make([]trajectory.CellTrajectory, 0, len(s.liveCells))),
		Completed: s.done.appendTo(make([]trajectory.CellTrajectory, 0, len(s.done.refs))),
		Started:   s.started,
		Now:       s.now,
		StepCount: s.stepCount,
	}
}

// Restore replaces the synthesizer's state with a previously exported one.
// Nothing of st is retained.
func (s *Synthesizer) Restore(st State) {
	s.truncateLive(0)
	for _, tr := range st.Active {
		s.liveStart = append(s.liveStart, tr.Start)
		s.liveCells = append(s.liveCells, append([]spatial.Cell(nil), tr.Cells...))
	}
	s.done = history{}
	for _, tr := range st.Completed {
		s.done.add(tr.Start, tr.Cells)
	}
	s.started = st.Started
	s.now = st.Now
	s.stepCount = st.StepCount
}

// Dataset returns the released synthetic database over timeline [0, T):
// all completed streams in completion order, then the still-active ones in
// release order. The Dataset never changes afterwards.
func (s *Synthesizer) Dataset(name string, T int) *trajectory.Dataset {
	trajs := s.done.appendTo(make([]trajectory.CellTrajectory, 0, len(s.done.refs)+len(s.liveCells)))
	return &trajectory.Dataset{Name: name, T: T, Trajs: s.appendLive(trajs)}
}

// appendLive appends a copy of every live stream to dst, all sharing one
// fresh backing array.
func (s *Synthesizer) appendLive(dst []trajectory.CellTrajectory) []trajectory.CellTrajectory {
	n := 0
	for _, cells := range s.liveCells {
		n += len(cells)
	}
	flat := make([]spatial.Cell, 0, n)
	for i, cells := range s.liveCells {
		off := len(flat)
		flat = append(flat, cells...)
		dst = append(dst, trajectory.CellTrajectory{Start: s.liveStart[i], Cells: flat[off:len(flat):len(flat)]})
	}
	return dst
}

// chunkCells is the capacity of one history chunk (256 KiB).
const chunkCells = 1 << 16

// history is the append-only arena of completed streams. Streams lie back
// to back inside chunks; one that does not fit in the last chunk's free
// capacity opens the next chunk (sized to the stream when it exceeds
// chunkCells). Every stream is thus contiguous, and offsets and chunk
// boundaries follow from the lengths alone.
type history struct {
	chunks [][]spatial.Cell
	refs   []ref
}

// ref locates one completed stream: its start timestamp and length.
type ref struct{ start, n int32 }

func (h *history) add(start int, cells []spatial.Cell) {
	last := len(h.chunks) - 1
	if last < 0 || len(h.chunks[last])+len(cells) > cap(h.chunks[last]) {
		h.chunks = append(h.chunks, make([]spatial.Cell, 0, max(chunkCells, len(cells))))
		last++
	}
	h.chunks[last] = append(h.chunks[last], cells...)
	h.refs = append(h.refs, ref{start: int32(start), n: int32(len(cells))})
}

// appendTo appends every completed stream, in completion order, to dst as
// arena slices capped at their length, so appending to one never writes
// into the arena.
func (h *history) appendTo(dst []trajectory.CellTrajectory) []trajectory.CellTrajectory {
	c, off := 0, 0
	for _, r := range h.refs {
		next := off + int(r.n)
		if next > len(h.chunks[c]) { // did not fit: add opened the next chunk
			c, off, next = c+1, 0, int(r.n)
		}
		dst = append(dst, trajectory.CellTrajectory{Start: int(r.start), Cells: h.chunks[c][off:next:next]})
		off = next
	}
	return dst
}

// remap rewrites every stored cell through mapCell into fresh chunks,
// leaving the old chunks — and every slice handed out of them — untouched.
func (h *history) remap(mapCell func(spatial.Cell) spatial.Cell) {
	for c, chunk := range h.chunks {
		fresh := make([]spatial.Cell, len(chunk), cap(chunk))
		for i, cell := range chunk {
			fresh[i] = mapCell(cell)
		}
		h.chunks[c] = fresh
	}
}
