// Package trajectory defines the data model for trajectory streams: raw
// continuous trajectories as produced by location-aware devices (or our
// dataset generators), their discretized grid-cell form, and the
// per-timestamp transition-state event streams the RetraSyn engine consumes
// (paper §II-C, §III-B).
package trajectory

import (
	"fmt"

	"retrasyn/internal/spatial"
	"retrasyn/internal/transition"
)

// RawPoint is a continuous two-dimensional location.
type RawPoint struct {
	X, Y float64
}

// RawTrajectory is one user's continuous stream: a location for every
// timestamp in [Start, Start+len(Points)).
type RawTrajectory struct {
	Start  int
	Points []RawPoint
}

// End returns the last timestamp at which the trajectory has a location.
func (r RawTrajectory) End() int { return r.Start + len(r.Points) - 1 }

// RawDataset is a collection of raw trajectory streams over a common
// timeline [0, T).
type RawDataset struct {
	Name  string
	T     int
	Trajs []RawTrajectory
}

// Positions returns every location report of the dataset as a spatial
// point — a quadtree density sketch. Only sketch public or historical data,
// never the private stream the engine collects over.
func (d *RawDataset) Positions() []spatial.Point {
	pts := make([]spatial.Point, 0, d.NumPoints())
	for _, tr := range d.Trajs {
		for _, p := range tr.Points {
			pts = append(pts, spatial.Point{X: p.X, Y: p.Y})
		}
	}
	return pts
}

// NumPoints returns the total number of location reports in the dataset.
func (d *RawDataset) NumPoints() int {
	n := 0
	for _, tr := range d.Trajs {
		n += len(tr.Points)
	}
	return n
}

// CellTrajectory is a discretized stream: one cell per timestamp in
// [Start, Start+len(Cells)).
type CellTrajectory struct {
	Start int
	Cells []spatial.Cell
}

// End returns the last timestamp at which the trajectory has a cell.
func (c CellTrajectory) End() int { return c.Start + len(c.Cells) - 1 }

// Len returns the number of points (the paper's trajectory length).
func (c CellTrajectory) Len() int { return len(c.Cells) }

// CellAt returns the cell at absolute timestamp t and whether the
// trajectory is present at t.
func (c CellTrajectory) CellAt(t int) (spatial.Cell, bool) {
	if t < c.Start || t > c.End() {
		return spatial.Invalid, false
	}
	return c.Cells[t-c.Start], true
}

// Dataset is a collection of discretized streams over a common timeline
// [0, T). Both the discretized original database T_orig and the synthetic
// database T_syn use this representation, so every metric applies to either
// side symmetrically.
type Dataset struct {
	Name  string
	T     int
	Trajs []CellTrajectory
}

// Stats summarizes a dataset the way the paper's Table I does.
type Stats struct {
	Size       int     // number of streams
	NumPoints  int     // total location reports
	AvgLength  float64 // mean stream length in points
	Timestamps int     // timeline length T
}

// Stats computes dataset statistics.
func (d *Dataset) Stats() Stats {
	s := Stats{Size: len(d.Trajs), Timestamps: d.T}
	for _, tr := range d.Trajs {
		s.NumPoints += len(tr.Cells)
	}
	if s.Size > 0 {
		s.AvgLength = float64(s.NumPoints) / float64(s.Size)
	}
	return s
}

// NumPoints returns the total number of points.
func (d *Dataset) NumPoints() int {
	n := 0
	for _, tr := range d.Trajs {
		n += len(tr.Cells)
	}
	return n
}

// ActiveCounts returns, for each timestamp, the number of streams that have
// a location at that timestamp. The curator knows these counts because it
// tracks user enter/quit status (paper §III-E); the synthesizer uses them as
// the size-adjustment target.
func (d *Dataset) ActiveCounts() []int {
	counts := make([]int, d.T)
	for _, tr := range d.Trajs {
		end := tr.End()
		for t := tr.Start; t <= end && t < d.T; t++ {
			if t >= 0 {
				counts[t]++
			}
		}
	}
	return counts
}

// Validate checks structural invariants: trajectories within the timeline,
// non-empty, cells valid for sp, and (when adjacencyRequired) every
// consecutive pair satisfying the reachability constraint.
func (d *Dataset) Validate(sp spatial.Discretizer, adjacencyRequired bool) error {
	for i, tr := range d.Trajs {
		if len(tr.Cells) == 0 {
			return fmt.Errorf("trajectory %d: empty", i)
		}
		if tr.Start < 0 || tr.End() >= d.T {
			return fmt.Errorf("trajectory %d: span [%d,%d] outside timeline [0,%d)", i, tr.Start, tr.End(), d.T)
		}
		for j, c := range tr.Cells {
			if !sp.ValidCell(c) {
				return fmt.Errorf("trajectory %d: invalid cell %d at offset %d", i, c, j)
			}
			if adjacencyRequired && j > 0 && !sp.Adjacent(tr.Cells[j-1], c) {
				return fmt.Errorf("trajectory %d: non-adjacent step %d→%d at offset %d", i, tr.Cells[j-1], c, j)
			}
		}
	}
	return nil
}

// DiscretizeOptions controls Discretize.
type DiscretizeOptions struct {
	// SplitNonAdjacent splits a stream whenever two consecutive cells violate
	// the reachability constraint, inserting a quit/enter pair — the same
	// treatment the paper applies to temporally non-adjacent reports. When
	// false such steps are kept verbatim (useful for analysis of raw data).
	SplitNonAdjacent bool
	// MinLength drops resulting streams shorter than this many points
	// (0 or 1 keeps everything).
	MinLength int
}

// Discretize maps a raw dataset onto the cells of a discretization,
// producing the engine-ready cell dataset. Points outside the bounds are
// clamped to the boundary (matching the paper's selection of a fixed study
// area).
func Discretize(raw *RawDataset, sp spatial.Discretizer, opts DiscretizeOptions) *Dataset {
	out := &Dataset{Name: raw.Name, T: raw.T}
	for _, rt := range raw.Trajs {
		if len(rt.Points) == 0 {
			continue
		}
		cells := make([]spatial.Cell, len(rt.Points))
		for i, p := range rt.Points {
			cells[i] = sp.CellOf(p.X, p.Y)
		}
		if !opts.SplitNonAdjacent {
			out.appendIfLong(CellTrajectory{Start: rt.Start, Cells: cells}, opts.MinLength)
			continue
		}
		segStart := 0
		for i := 1; i <= len(cells); i++ {
			if i == len(cells) || !sp.Adjacent(cells[i-1], cells[i]) {
				seg := CellTrajectory{
					Start: rt.Start + segStart,
					Cells: cells[segStart:i:i],
				}
				out.appendIfLong(seg, opts.MinLength)
				segStart = i
			}
		}
	}
	return out
}

func (d *Dataset) appendIfLong(tr CellTrajectory, minLen int) {
	if len(tr.Cells) >= minLen || minLen <= 1 {
		if len(tr.Cells) > 0 {
			d.Trajs = append(d.Trajs, tr)
		}
	}
}

// Event is one user's transition-state report at a timestamp. User identity
// matters only for population-division sampling and recycling; the state is
// what gets perturbed.
type Event struct {
	User  int
	State transition.State
}

// Stream precomputes the per-timestamp event lists of a dataset: at each
// timestamp a present user contributes exactly one transition state —
// enter at Start, a movement while continuing, and a final quit report at
// End+1 (graceful shutdown). Quit events beyond the timeline are dropped
// (the stream simply ends with the data).
type Stream struct {
	T       int
	Events  [][]Event // per timestamp
	Active  []int     // streams with a location at t (size-adjustment target)
	NumUser int
}

// NewStream builds the event stream for a dataset. User IDs are the dataset
// trajectory indices.
func NewStream(d *Dataset) *Stream {
	s := &Stream{
		T:       d.T,
		Events:  make([][]Event, d.T),
		Active:  d.ActiveCounts(),
		NumUser: len(d.Trajs),
	}
	for id, tr := range d.Trajs {
		if tr.Start >= 0 && tr.Start < d.T {
			s.Events[tr.Start] = append(s.Events[tr.Start],
				Event{User: id, State: transition.EnterState(tr.Cells[0])})
		}
		for j := 1; j < len(tr.Cells); j++ {
			t := tr.Start + j
			if t < 0 || t >= d.T {
				continue
			}
			s.Events[t] = append(s.Events[t],
				Event{User: id, State: transition.MoveState(tr.Cells[j-1], tr.Cells[j])})
		}
		if qt := tr.End() + 1; qt < d.T {
			s.Events[qt] = append(s.Events[qt],
				Event{User: id, State: transition.QuitState(tr.Cells[len(tr.Cells)-1])})
		}
	}
	return s
}

// At returns the events at timestamp t.
func (s *Stream) At(t int) []Event { return s.Events[t] }

// SweepEvents visits the dataset's per-timestamp event lists in timestamp
// order without materializing a Stream: fn receives, for each t in [0, T),
// exactly the events (and active-stream count) NewStream would have stored,
// in the same order. Memory is bounded by the number of concurrently live
// streams, not the total point count, which is what lets cmd/datagen export
// transition streams at SanJoaquin scale. The events slice is reused between
// calls; fn must not retain it. A non-nil error from fn stops the sweep.
func SweepEvents(d *Dataset, fn func(t int, events []Event, active int) error) error {
	if d.T <= 0 {
		return nil
	}
	// Bucket trajectory ids by start timestamp; scanning d.Trajs in order
	// keeps each bucket ascending, which the merge below relies on.
	starters := make([][]int, d.T)
	for id, tr := range d.Trajs {
		if tr.Start >= 0 && tr.Start < d.T && len(tr.Cells) > 0 {
			starters[tr.Start] = append(starters[tr.Start], id)
		}
	}
	var live, merged []int
	var events []Event
	for t := 0; t < d.T; t++ {
		if s := starters[t]; len(s) > 0 {
			// Merge the starters into the live list keeping ascending id
			// order — NewStream appends per trajectory in id order, so the
			// per-timestamp event order is ascending id.
			merged = merged[:0]
			i, j := 0, 0
			for i < len(live) && j < len(s) {
				if live[i] < s[j] {
					merged = append(merged, live[i])
					i++
				} else {
					merged = append(merged, s[j])
					j++
				}
			}
			merged = append(merged, live[i:]...)
			merged = append(merged, s[j:]...)
			live = append(live[:0], merged...)
			starters[t] = nil
		}
		events = events[:0]
		active := 0
		keep := live[:0]
		for _, id := range live {
			tr := d.Trajs[id]
			switch {
			case t == tr.Start:
				events = append(events, Event{User: id, State: transition.EnterState(tr.Cells[0])})
				active++
			case t <= tr.End():
				j := t - tr.Start
				events = append(events, Event{User: id, State: transition.MoveState(tr.Cells[j-1], tr.Cells[j])})
				active++
			default: // t == End()+1: the graceful quit report
				events = append(events, Event{User: id, State: transition.QuitState(tr.Cells[len(tr.Cells)-1])})
			}
			if t <= tr.End() {
				keep = append(keep, id)
			}
		}
		live = keep
		if err := fn(t, events, active); err != nil {
			return err
		}
	}
	return nil
}

// Subset returns a dataset containing the first n trajectories; used by the
// scalability experiment (Figure 7). It shares underlying storage.
func (d *Dataset) Subset(n int) *Dataset {
	if n > len(d.Trajs) {
		n = len(d.Trajs)
	}
	return &Dataset{Name: d.Name, T: d.T, Trajs: d.Trajs[:n]}
}
