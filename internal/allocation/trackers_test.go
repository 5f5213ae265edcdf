package allocation

import (
	"math"
	"testing"
	"testing/quick"

	"retrasyn/internal/ldp"
)

func TestDevTrackerInsufficientHistory(t *testing.T) {
	d := NewDevTracker(5)
	if d.Dev() != 0 {
		t.Fatal("empty tracker Dev should be 0")
	}
	d.Push([]float64{1, 2})
	if d.Dev() != 0 {
		t.Fatal("single-entry tracker Dev should be 0")
	}
}

func TestDevTrackerL1(t *testing.T) {
	d := NewDevTracker(5)
	d.Push([]float64{0.5, 0.5})
	d.Push([]float64{0.7, 0.3})
	// mean of previous = (0.5, 0.5); dev = |0.7−0.5| + |0.3−0.5| = 0.4.
	if got := d.Dev(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("Dev = %v, want 0.4", got)
	}
}

func TestDevTrackerMeanOverKappa(t *testing.T) {
	d := NewDevTracker(2)
	d.Push([]float64{0})
	d.Push([]float64{2})
	d.Push([]float64{4})
	// History capped at κ+1=3 entries: latest 4, previous {0, 2}, mean 1 → dev 3.
	if got := d.Dev(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Dev = %v, want 3", got)
	}
	d.Push([]float64{4})
	// Now latest 4, previous {2, 4}, mean 3 → dev 1.
	if got := d.Dev(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Dev after slide = %v, want 1", got)
	}
}

func TestDevTrackerStableStreamZero(t *testing.T) {
	d := NewDevTracker(5)
	for i := 0; i < 10; i++ {
		d.Push([]float64{0.25, 0.25, 0.5})
	}
	if got := d.Dev(); got != 0 {
		t.Fatalf("stable stream Dev = %v, want 0", got)
	}
}

func TestDevTrackerCopiesInput(t *testing.T) {
	d := NewDevTracker(3)
	v := []float64{1}
	d.Push(v)
	v[0] = 100
	d.Push([]float64{2})
	if got := d.Dev(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("tracker aliased caller slice: Dev = %v, want 1", got)
	}
}

func TestDevTrackerNonNegativeProperty(t *testing.T) {
	f := func(seed uint64, pushes uint8) bool {
		rng := ldp.NewRand(seed, seed^7)
		d := NewDevTracker(int(seed%6) + 1)
		for i := 0; i < int(pushes%20)+2; i++ {
			v := make([]float64, 5)
			for j := range v {
				v[j] = rng.Float64()
			}
			d.Push(v)
			if d.Dev() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewDevTrackerClampKappa(t *testing.T) {
	d := NewDevTracker(0)
	d.Push([]float64{0})
	d.Push([]float64{1})
	if got := d.Dev(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Dev = %v", got)
	}
}

func TestSigTracker(t *testing.T) {
	s := NewSigTracker(3)
	if s.Mean() != 0 {
		t.Fatal("empty tracker mean should be 0")
	}
	s.Push(0.2)
	s.Push(0.4)
	if got := s.Mean(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Mean = %v, want 0.3", got)
	}
	s.Push(0.6)
	s.Push(0.8) // evicts 0.2
	if got := s.Mean(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("Mean after slide = %v, want 0.6", got)
	}
}

func TestBudgetWindow(t *testing.T) {
	b := NewBudgetWindow(3)
	if b.Used() != 0 {
		t.Fatal("fresh window Used should be 0")
	}
	b.Record(0.1)
	b.Record(0.2)
	if got := b.Used(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Used = %v, want 0.3", got)
	}
	b.Record(0.3)
	// Window is full; the 0.1 slot is about to leave the upcoming window.
	if got := b.Used(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Used = %v, want 0.5 (0.2+0.3)", got)
	}
	b.Record(0.4)
	if got := b.Used(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("Used = %v, want 0.7 (0.3+0.4)", got)
	}
}

func TestBudgetWindowW1(t *testing.T) {
	b := NewBudgetWindow(1)
	b.Record(0.9)
	// With w=1 the previous spend never constrains the next timestamp.
	if got := b.Used(); got != 0 {
		t.Fatalf("w=1 Used = %v, want 0", got)
	}
}

func TestBudgetWindowInvariantProperty(t *testing.T) {
	// Spending ε−Used() at every timestamp never exceeds ε in any window.
	f := func(seed uint64, wRaw uint8) bool {
		w := int(wRaw%10) + 1
		const eps = 1.0
		rng := ldp.NewRand(seed, seed+3)
		b := NewBudgetWindow(w)
		ledger := NewLedger(80)
		for t := 0; t < 80; t++ {
			rm := eps - b.Used()
			spend := rm * rng.Float64()
			b.Record(spend)
			ledger.RecordRound(t, spend, nil)
		}
		return ledger.MaxWindowSum(w) <= eps+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerMaxWindowSum(t *testing.T) {
	l := NewLedger(10)
	l.RecordRound(0, 0.5, nil)
	l.RecordRound(1, 0.4, nil)
	l.RecordRound(5, 0.9, nil)
	if got := l.MaxWindowSum(3); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("MaxWindowSum(3) = %v, want 0.9", got)
	}
	if got := l.MaxWindowSum(2); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("MaxWindowSum(2) = %v, want 0.9", got)
	}
	if got := l.MaxWindowSum(1); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("MaxWindowSum(1) = %v, want 0.9", got)
	}
	l.RecordRound(6, 0.3, nil)
	if got := l.MaxWindowSum(2); math.Abs(got-1.2) > 1e-12 {
		t.Fatalf("MaxWindowSum(2) = %v, want 1.2", got)
	}
}

func TestLedgerMaxUserWindowSum(t *testing.T) {
	l := NewLedger(20)
	l.RecordRound(0, 1.0, []int{1, 2})
	l.RecordRound(5, 1.0, []int{1})
	l.RecordRound(12, 1.0, []int{2})
	epsAt := func(t int) float64 { return 1.0 }
	// User 1 reports at 0 and 5: both inside a window of 6.
	if got := l.MaxUserWindowSum(6, epsAt); math.Abs(got-2) > 1e-12 {
		t.Fatalf("MaxUserWindowSum(6) = %v, want 2", got)
	}
	// Window of 5 separates them.
	if got := l.MaxUserWindowSum(5, epsAt); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MaxUserWindowSum(5) = %v, want 1", got)
	}
}

// TestLedgerIgnoresOutOfRange: a round before the timeline is not recorded;
// one past the ledger's T grows it (see TestLedgerCountsRoundsPastT in
// internal/core).
func TestLedgerIgnoresOutOfRange(t *testing.T) {
	l := NewLedger(5)
	l.RecordRound(-1, 1.0, nil)
	if got := l.MaxWindowSum(5); got != 0 {
		t.Fatalf("out-of-range rounds recorded: %v", got)
	}
	l.RecordRound(99, 1.0, nil)
	if len(l.EpsByT) != 100 || l.MaxWindowSum(5) != 1.0 {
		t.Fatalf("round past T dropped: %d timestamps, window sum %v", len(l.EpsByT), l.MaxWindowSum(5))
	}
}
