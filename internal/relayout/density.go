// Package relayout implements online adaptive re-discretization: rebuilding
// the spatial layout from the *released* synthetic stream while the engine
// runs, and migrating live engine state onto the new layout.
//
// The spatial discretization (internal/spatial) is frozen at boot from a
// historical density sketch. When the workload's hotspots drift, the boot
// layout's fine leaves go cold and its coarse leaves go hot, and the domain
// shrink the adaptive quadtree bought evaporates. This package closes the
// loop:
//
//   - a DensityTracker accumulates a sliding-window density sketch from the
//     released synthetic trajectories;
//   - a Controller periodically grows a fresh quadtree from that sketch and
//     decides — by a layout-distance threshold — whether switching is worth
//     the churn;
//   - a Migration computes cell-overlap area weights between the old and new
//     discretizers and resamples engine state across layouts: mobility
//     transition/enter/quit mass is pushed through the overlap matrix,
//     tracker histories are re-indexed, and in-flight synthetic trajectories
//     are remapped to the overlapping new cell.
//
// Privacy: the released synthetic stream is a post-processing of the LDP
// outputs (paper Theorem 2), so deriving a new layout from it consumes no
// additional privacy budget — unlike sketching the private input stream,
// which would leak hotspot locations outside the ε accounting. This mirrors
// how PrivTrace adapts Markov-model granularity to observed density while
// keeping the adaptation inside the privacy analysis.
package relayout

import (
	"fmt"
	"math"
	"sort"

	"retrasyn/internal/spatial"
)

// SpreadInBox places the i-th point of a batch inside a box using the R2
// low-discrepancy sequence (Roberts' plastic-constant rule), covering the
// box area deterministically. Released positions are spread this way: a
// released cell only says "somewhere in this box", and collapsing whole
// cells onto their centers would both hide density spread inside coarse
// regions and make rebuilds split forever around single heavy points. The
// sequence involves no RNG, so observing the release never perturbs it.
func SpreadInBox(b spatial.Bounds, i int) spatial.Point {
	const a1, a2 = 0.7548776662466927, 0.5698402909980532
	x := float64(i + 1)
	return spatial.Point{X: b.MinX + fracMul(x, a1)*b.Width(), Y: b.MinY + fracMul(x, a2)*b.Height()}
}

// fracMul returns the fractional part of x·a for a finite product ≥ 0, bit
// for bit what math.Mod(x*a, 1) returns at a fraction of its cost: below 1
// the floor is 0, and from 1 up ⌊v⌋ ≥ v/2, so the subtraction is exact
// (Sterbenz). The conversion rounds the product before it is used, so no
// platform fuses the multiplication into the subtraction.
func fracMul(x, a float64) float64 {
	v := float64(x * a)
	return v - math.Floor(v)
}

// SpreadInPieces is SpreadInBox for polygonal cells (spatial.Overlapper):
// the i-th point lands inside the union of the cell's convex pieces instead
// of its bounding box, so geofenced releases sketch density inside the fence
// rather than over gap space the fence deliberately excludes. A golden-ratio
// scalar picks a piece triangle area-proportionally and the R2 pair folds
// onto it; like SpreadInBox the construction involves no RNG.
func SpreadInPieces(pieces [][]spatial.Point, i int) spatial.Point {
	const a1, a2 = 0.7548776662466927, 0.5698402909980532
	const golden = 0.6180339887498949
	// Fan-triangulate the convex pieces and pick a triangle by cumulative
	// area at the golden-ratio sequence position.
	total := 0.0
	for _, ring := range pieces {
		for k := 1; k+1 < len(ring); k++ {
			total += triArea(ring[0], ring[k], ring[k+1])
		}
	}
	if total <= 0 {
		return spatial.Point{}
	}
	x := float64(i + 1)
	target := fracMul(x, golden) * total
	var a, b, c spatial.Point
	acc := 0.0
	found := false
pick:
	for _, ring := range pieces {
		for k := 1; k+1 < len(ring); k++ {
			a, b, c = ring[0], ring[k], ring[k+1]
			acc += triArea(a, b, c)
			if acc >= target {
				found = true
				break pick
			}
		}
	}
	if !found { // float drift past the last triangle
		last := pieces[len(pieces)-1]
		a, b, c = last[0], last[len(last)-2], last[len(last)-1]
	}
	u := fracMul(x, a1)
	v := fracMul(x, a2)
	if u+v > 1 { // fold the unit square onto the triangle
		u, v = 1-u, 1-v
	}
	return spatial.Point{
		X: a.X + u*(b.X-a.X) + v*(c.X-a.X),
		Y: a.Y + u*(b.Y-a.Y) + v*(c.Y-a.Y),
	}
}

func triArea(a, b, c spatial.Point) float64 {
	return math.Abs((b.X-a.X)*(c.Y-a.Y)-(b.Y-a.Y)*(c.X-a.X)) / 2
}

// DensityTracker accumulates a sliding-window density sketch over the most
// recent window of released synthetic positions. One Observe call per
// timestamp records the current positions of the released streams; once the
// window fills, the oldest timestamp's points retire. The tracker stores
// continuous points, so its contents survive layout switches unchanged. Not
// safe for concurrent use.
type DensityTracker struct {
	cap   int               // timestamps retained
	slots [][]spatial.Point // ring keyed t % cap
	ts    []int             // timestamp occupying each slot; -1 empty
	n     int               // total points currently held

	// The folded view Counts serves: the window histogrammed onto one
	// discretizer, kept incrementally. Derived from slots, rebuilt lazily and
	// never part of TrackerState. Counts are integers held in float64, so
	// adding and subtracting them is exact in any order.
	space      spatial.Discretizer // layout folded on; nil until the first Counts
	counts     []float64           // Σ slotCounts: per-cell points in the window
	slotCounts [][]float64         // per-slot share of counts
	dirty      []bool              // slot's points are not in the counts yet
}

// NewDensityTracker creates a tracker retaining the last capTimestamps
// timestamps of observations.
func NewDensityTracker(capTimestamps int) *DensityTracker {
	if capTimestamps < 1 {
		capTimestamps = 1
	}
	d := &DensityTracker{
		cap:   capTimestamps,
		slots: make([][]spatial.Point, capTimestamps),
		ts:    make([]int, capTimestamps),
	}
	for i := range d.ts {
		d.ts[i] = -1
	}
	return d
}

// Observe records the released positions at timestamp t, evicting whatever
// timestamp previously occupied t's ring slot. The points are copied.
func (d *DensityTracker) Observe(t int, pts []spatial.Point) {
	if t < 0 {
		return
	}
	slot := t % d.cap
	d.retire(slot)
	d.n -= len(d.slots[slot])
	d.slots[slot] = append(d.slots[slot][:0], pts...)
	d.ts[slot] = t
	d.n += len(pts)
}

// retire takes a slot's points out of the folded view ahead of the slot being
// overwritten; the next Counts folds whatever the slot then holds.
func (d *DensityTracker) retire(slot int) {
	if d.space == nil || d.dirty[slot] {
		return
	}
	for c, v := range d.slotCounts[slot] {
		d.counts[c] -= v
		d.slotCounts[slot][c] = 0
	}
	d.dirty[slot] = true
}

// Len returns the number of points currently held.
func (d *DensityTracker) Len() int { return d.n }

// Counts returns the sketch histogrammed onto space: element c is the number
// of retained points space.CellOf places in cell c. The view is incremental —
// a call folds only the timestamps observed since the previous one, so every
// point passes through CellOf once per layout, not once per call — and a
// different space (or a Restore) refolds the whole window once. The returned
// slice is the tracker's own: read it before the next Observe, Counts or
// Restore, and do not modify it.
func (d *DensityTracker) Counts(space spatial.Discretizer) []float64 {
	if !d.foldedOn(space) {
		d.space = space
		d.counts = make([]float64, space.NumCells())
		d.slotCounts = make([][]float64, d.cap)
		d.dirty = make([]bool, d.cap)
		for slot := range d.slotCounts {
			d.slotCounts[slot] = make([]float64, len(d.counts))
			d.dirty[slot] = true
		}
	}
	for slot, dirty := range d.dirty {
		if !dirty {
			continue
		}
		d.dirty[slot] = false
		if d.ts[slot] < 0 {
			continue
		}
		sc := d.slotCounts[slot]
		for _, p := range d.slots[slot] {
			if c := int(space.CellOf(p.X, p.Y)); c >= 0 && c < len(sc) {
				sc[c]++
				d.counts[c]++
			}
		}
	}
	return d.counts
}

// foldedOn reports whether the folded view is valid for space. Identity
// settles the per-round case; fingerprints (the grid formats its own on every
// call) are compared only when the objects differ, so an equal layout
// rebuilt elsewhere keeps the view.
func (d *DensityTracker) foldedOn(space spatial.Discretizer) bool {
	if d.space == nil {
		return false
	}
	if d.space != space {
		if d.space.Fingerprint() != space.Fingerprint() {
			return false
		}
		d.space = space
	}
	return true
}

// Points returns the sketch: every retained point, ordered by timestamp
// (oldest first) and within a timestamp by observation order. The
// deterministic order keeps quadtree rebuilds reproducible.
func (d *DensityTracker) Points() []spatial.Point {
	order := make([]int, 0, d.cap)
	for slot, t := range d.ts {
		if t >= 0 {
			order = append(order, slot)
		}
	}
	sort.Slice(order, func(a, b int) bool { return d.ts[order[a]] < d.ts[order[b]] })
	out := make([]spatial.Point, 0, d.n)
	for _, slot := range order {
		out = append(out, d.slots[slot]...)
	}
	return out
}

// TrackerState is the serializable form of a DensityTracker.
type TrackerState struct {
	Cap   int               `json:"cap"`
	Slots [][]spatial.Point `json:"slots"`
	Ts    []int             `json:"ts"`
}

// State exports a deep copy of the tracker.
func (d *DensityTracker) State() TrackerState {
	st := TrackerState{
		Cap:   d.cap,
		Slots: make([][]spatial.Point, d.cap),
		Ts:    append([]int(nil), d.ts...),
	}
	for i, pts := range d.slots {
		st.Slots[i] = append([]spatial.Point(nil), pts...)
	}
	return st
}

// Restore replaces the tracker's contents with a previously exported state.
// The capacity must match.
func (d *DensityTracker) Restore(st TrackerState) error {
	if st.Cap != d.cap || len(st.Slots) != d.cap || len(st.Ts) != d.cap {
		return fmt.Errorf("relayout: tracker restore capacity %d (slots %d, ts %d) ≠ %d",
			st.Cap, len(st.Slots), len(st.Ts), d.cap)
	}
	d.n = 0
	d.space = nil // the folded view described the replaced contents
	for i := range d.slots {
		d.slots[i] = append(d.slots[i][:0], st.Slots[i]...)
		d.ts[i] = st.Ts[i]
		if d.ts[i] >= 0 {
			d.n += len(d.slots[i])
		}
	}
	return nil
}
