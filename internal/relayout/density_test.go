package relayout_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"retrasyn/internal/grid"
	"retrasyn/internal/relayout"
	"retrasyn/internal/spatial"
)

// foldPoints is the reference fold the tracker's incremental view must equal:
// every retained point re-binned through CellOf.
func foldPoints(space spatial.Discretizer, pts []spatial.Point) []float64 {
	out := make([]float64, space.NumCells())
	for _, p := range pts {
		c := space.CellOf(p.X, p.Y)
		if c >= 0 && int(c) < len(out) {
			out[int(c)]++
		}
	}
	return out
}

// TestCountsMatchesReferenceFold drives random Observe sequences — timestamp
// gaps, repeated and negative timestamps, empty rounds, several rounds between
// two looks — across layout switches grid → quadtree → geofence → an equal
// grid built afresh, with State/Restore round-trips in between, and checks the
// folded view against the reference fold of Points() exactly at every look.
func TestCountsMatchesReferenceFold(t *testing.T) {
	for _, capTs := range []int{1, 3, 8} {
		rng := rand.New(rand.NewPCG(uint64(capTs), 0xf01d))
		randPts := func(n int) []spatial.Point {
			pts := make([]spatial.Point, n)
			for i := range pts {
				// A clustered cloud that also strays outside the unit bounds,
				// where CellOf clamps.
				pts[i] = spatial.Point{X: 0.3 + 0.25*rng.NormFloat64(), Y: 0.6 + 0.25*rng.NormFloat64()}
			}
			return pts
		}
		qt, err := spatial.NewQuadtree(unitBounds(), randPts(600), spatial.QuadtreeOptions{MaxLeaves: 19})
		if err != nil {
			t.Fatal(err)
		}
		spaces := []spatial.Discretizer{
			grid.MustNew(6, unitBounds()), qt, districtFence(t), grid.MustNew(6, unitBounds()),
		}
		tr := relayout.NewDensityTracker(capTs)
		saved := tr.State()
		si, ts, looks := 0, 0, 0
		for step := 0; step < 600; step++ {
			switch op := rng.IntN(20); {
			case op == 0:
				si = (si + 1) % len(spaces)
			case op == 1:
				// Through a checkpoint into a fresh tracker.
				next := relayout.NewDensityTracker(capTs)
				if err := next.Restore(tr.State()); err != nil {
					t.Fatal(err)
				}
				tr = next
			case op == 2:
				// Roll back to an earlier checkpoint over a live folded view.
				if err := tr.Restore(saved); err != nil {
					t.Fatal(err)
				}
			case op == 3:
				saved = tr.State()
			case op == 4:
				tr.Observe(-1-rng.IntN(5), randPts(4))
			case op == 5:
				tr.Observe(ts, nil)
			default:
				ts += rng.IntN(4) // 0 re-observes the timestamp, > 1 leaves a gap
				tr.Observe(ts, randPts(rng.IntN(40)))
			}
			if rng.IntN(3) == 0 {
				continue // let several slots go stale before the next look
			}
			looks++
			got, want := tr.Counts(spaces[si]), foldPoints(spaces[si], tr.Points())
			if len(got) != len(want) {
				t.Fatalf("cap %d step %d: %d cells folded, want %d", capTs, step, len(got), len(want))
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("cap %d step %d (t=%d, space %d): cell %d holds %v, reference fold %v", capTs, step, ts, si, c, got[c], want[c])
				}
			}
		}
		if looks < 300 {
			t.Fatalf("cap %d: only %d looks", capTs, looks)
		}
	}
}

// The math.Mod forms SpreadInBox and SpreadInPieces had before they switched
// to v − ⌊v⌋.
func spreadInBoxMod(b spatial.Bounds, i int) spatial.Point {
	const a1, a2 = 0.7548776662466927, 0.5698402909980532
	fx := math.Mod(float64(i+1)*a1, 1)
	fy := math.Mod(float64(i+1)*a2, 1)
	return spatial.Point{X: b.MinX + fx*b.Width(), Y: b.MinY + fy*b.Height()}
}

func spreadInPiecesMod(pieces [][]spatial.Point, i int) spatial.Point {
	const a1, a2 = 0.7548776662466927, 0.5698402909980532
	const golden = 0.6180339887498949
	triArea := func(a, b, c spatial.Point) float64 {
		return math.Abs((b.X-a.X)*(c.Y-a.Y)-(b.Y-a.Y)*(c.X-a.X)) / 2
	}
	total := 0.0
	for _, ring := range pieces {
		for k := 1; k+1 < len(ring); k++ {
			total += triArea(ring[0], ring[k], ring[k+1])
		}
	}
	target := math.Mod(float64(i+1)*golden, 1) * total
	last := pieces[len(pieces)-1]
	a, b, c := last[0], last[len(last)-2], last[len(last)-1]
	acc := 0.0
pick:
	for _, ring := range pieces {
		for k := 1; k+1 < len(ring); k++ {
			if acc += triArea(ring[0], ring[k], ring[k+1]); acc >= target {
				a, b, c = ring[0], ring[k], ring[k+1]
				break pick
			}
		}
	}
	u := math.Mod(float64(i+1)*a1, 1)
	v := math.Mod(float64(i+1)*a2, 1)
	if u+v > 1 {
		u, v = 1-u, 1-v
	}
	return spatial.Point{
		X: a.X + u*(b.X-a.X) + v*(c.X-a.X),
		Y: a.Y + u*(b.Y-a.Y) + v*(c.Y-a.Y),
	}
}

// TestSpreadMatchesModForm pins that dropping math.Mod moved no released
// position by a single bit: every index a run can reach, and a handful where
// float64(i+1) has run out of fraction bits.
func TestSpreadMatchesModForm(t *testing.T) {
	box := spatial.Bounds{MinX: -3.25, MinY: 1.5, MaxX: 7.125, MaxY: 1.75}
	pieces := [][]spatial.Point{
		{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 2.5, Y: 1.5}, {X: 1, Y: 2.25}, {X: -0.5, Y: 1}},
		{{X: 4, Y: 4}, {X: 5, Y: 4.5}, {X: 4.25, Y: 6}},
	}
	check := func(i int) {
		if got, want := relayout.SpreadInBox(box, i), spreadInBoxMod(box, i); got != want {
			t.Fatalf("SpreadInBox(%d) = %v, math.Mod form %v", i, got, want)
		}
		if got, want := relayout.SpreadInPieces(pieces, i), spreadInPiecesMod(pieces, i); got != want {
			t.Fatalf("SpreadInPieces(%d) = %v, math.Mod form %v", i, got, want)
		}
	}
	for i := 0; i < 1<<22; i++ {
		check(i)
	}
	for _, i := range []int{1<<52 - 2, 1<<52 - 1, 1 << 52, 1<<52 + 1, 1<<53 - 1, 1 << 53, 1<<53 + 7} {
		check(i)
	}
}
