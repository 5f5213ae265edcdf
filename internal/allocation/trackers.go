package allocation

import (
	"fmt"
	"math"
)

// DevTracker computes the stream deviation Dev_t of Eq. 9 from the recent
// history of (perturbed) transition-frequency vectors. The per-state
// differences are taken in absolute value — the signed sum of the paper's
// printed formula telescopes to ≈0 for normalized frequencies:
//
//	Dev_t = Σ_s | f^{t−1}_s − (1/κ) Σ_{k=t−κ−1}^{t−2} f^k_s |
//
// Push the post-update frequency vector once per timestamp; Dev() then
// refers to the upcoming timestamp t.
type DevTracker struct {
	kappa int
	hist  [][]float64 // most recent last; at most kappa+1 entries
}

// NewDevTracker creates a tracker over the κ most recent timestamps
// (paper default κ=5).
func NewDevTracker(kappa int) *DevTracker {
	if kappa < 1 {
		kappa = 1
	}
	return &DevTracker{kappa: kappa}
}

// Push records the frequency vector observed at the timestamp just
// processed. The vector is copied.
func (d *DevTracker) Push(freq []float64) {
	cp := make([]float64, len(freq))
	copy(cp, freq)
	d.hist = append(d.hist, cp)
	if len(d.hist) > d.kappa+1 {
		// Shift rather than re-slice so old vectors can be collected.
		copy(d.hist, d.hist[1:])
		d.hist[len(d.hist)-1] = nil
		d.hist = d.hist[:len(d.hist)-1]
		d.hist[len(d.hist)-1] = cp
	}
}

// DevState is the serializable form of a DevTracker.
type DevState struct {
	Hist [][]float64 `json:"hist"`
}

// State exports a deep copy of the tracker history.
func (d *DevTracker) State() DevState {
	hist := make([][]float64, len(d.hist))
	for i, h := range d.hist {
		hist[i] = append([]float64(nil), h...)
	}
	return DevState{Hist: hist}
}

// Restore replaces the history with a previously exported one. Entries
// beyond the tracker's capacity are trimmed from the oldest end.
func (d *DevTracker) Restore(st DevState) {
	d.hist = d.hist[:0]
	for _, h := range st.Hist {
		d.hist = append(d.hist, append([]float64(nil), h...))
	}
	if over := len(d.hist) - (d.kappa + 1); over > 0 {
		d.hist = append([][]float64(nil), d.hist[over:]...)
	}
}

// Dev returns Dev_t for the upcoming timestamp: the L1 distance between the
// latest vector and the mean of the up-to-κ vectors before it. It returns 0
// until at least two vectors have been pushed.
func (d *DevTracker) Dev() float64 {
	n := len(d.hist)
	if n < 2 {
		return 0
	}
	latest := d.hist[n-1]
	prev := d.hist[:n-1]
	dev := 0.0
	inv := 1 / float64(len(prev))
	for s := range latest {
		mean := 0.0
		for _, h := range prev {
			mean += h[s]
		}
		dev += math.Abs(latest[s] - mean*inv)
	}
	return dev
}

// SigTracker records the recent |S*|/|S| ratios for the (1 − mean) damping
// term of Eq. 10.
type SigTracker struct {
	kappa  int
	ratios []float64
}

// NewSigTracker creates a tracker over the κ most recent timestamps.
func NewSigTracker(kappa int) *SigTracker {
	if kappa < 1 {
		kappa = 1
	}
	return &SigTracker{kappa: kappa}
}

// Push records the significant-transition ratio of the timestamp just
// processed (0 when no collection happened).
func (s *SigTracker) Push(ratio float64) {
	s.ratios = append(s.ratios, ratio)
	if len(s.ratios) > s.kappa {
		copy(s.ratios, s.ratios[1:])
		s.ratios = s.ratios[:len(s.ratios)-1]
	}
}

// SigState is the serializable form of a SigTracker.
type SigState struct {
	Ratios []float64 `json:"ratios"`
}

// State exports a copy of the recorded ratios.
func (s *SigTracker) State() SigState {
	return SigState{Ratios: append([]float64(nil), s.ratios...)}
}

// Restore replaces the recorded ratios with a previously exported set,
// trimming from the oldest end when it exceeds the tracker's capacity.
func (s *SigTracker) Restore(st SigState) {
	s.ratios = append(s.ratios[:0], st.Ratios...)
	if over := len(s.ratios) - s.kappa; over > 0 {
		s.ratios = append([]float64(nil), s.ratios[over:]...)
	}
}

// Mean returns the mean recorded ratio, 0 with no history.
func (s *SigTracker) Mean() float64 {
	if len(s.ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range s.ratios {
		sum += r
	}
	return sum / float64(len(s.ratios))
}

// BudgetWindow tracks per-timestamp budget expenditure over a sliding
// window of w timestamps, providing the ε_rm computation of the
// budget-division strategy and the w-event accounting invariant.
type BudgetWindow struct {
	w     int
	spent []float64 // ring over the last w timestamps
	next  int
	used  float64 // running sum of the ring
}

// NewBudgetWindow creates a window of size w.
func NewBudgetWindow(w int) *BudgetWindow {
	if w < 1 {
		w = 1
	}
	return &BudgetWindow{w: w, spent: make([]float64, w)}
}

// Used returns Σ ε_i over the last w−1 recorded timestamps plus nothing for
// the current one — i.e. the budget already committed inside the window
// that the upcoming timestamp belongs to.
func (b *BudgetWindow) Used() float64 {
	// The slot about to be overwritten leaves the window before the upcoming
	// timestamp, so exclude it.
	return b.used - b.spent[b.next]
}

// Record logs the expenditure of the timestamp just processed and slides
// the window.
func (b *BudgetWindow) Record(eps float64) {
	b.used -= b.spent[b.next]
	b.spent[b.next] = eps
	b.used += eps
	b.next = (b.next + 1) % b.w
}

// BudgetWindowState is the serializable form of a BudgetWindow.
type BudgetWindowState struct {
	Spent []float64 `json:"spent"`
	Next  int       `json:"next"`
	Used  float64   `json:"used"`
}

// State exports the window's expenditure ring.
func (b *BudgetWindow) State() BudgetWindowState {
	return BudgetWindowState{
		Spent: append([]float64(nil), b.spent...),
		Next:  b.next,
		Used:  b.used,
	}
}

// Restore replaces the ring with a previously exported one. The window size
// must match.
func (b *BudgetWindow) Restore(st BudgetWindowState) error {
	if len(st.Spent) != b.w {
		return fmt.Errorf("allocation: BudgetWindow.Restore size %d ≠ w %d", len(st.Spent), b.w)
	}
	if st.Next < 0 || st.Next >= b.w {
		return fmt.Errorf("allocation: BudgetWindow.Restore next %d outside [0,%d)", st.Next, b.w)
	}
	copy(b.spent, st.Spent)
	b.next = st.Next
	b.used = st.Used
	return nil
}

// Ledger records every collection round for post-hoc verification of the
// w-event guarantee; tests use it to assert that no window ever exceeds ε
// (budget division) and no user reports twice within a window (population
// division).
type Ledger struct {
	// EpsByT[t] is the per-user budget spent at timestamp t (0 when no
	// report).
	EpsByT []float64
	// ReportsByUser maps user → sorted timestamps at which that user
	// reported.
	ReportsByUser map[int][]int
}

// NewLedger creates an empty ledger for a timeline of length T; recording
// past T grows it.
func NewLedger(T int) *Ledger {
	return &Ledger{
		EpsByT:        make([]float64, T),
		ReportsByUser: make(map[int][]int),
	}
}

// Clone deep-copies the ledger, for checkpoints that must stay stable while
// recording continues.
func (l *Ledger) Clone() *Ledger {
	if l == nil {
		return nil
	}
	cp := &Ledger{
		EpsByT:        append([]float64(nil), l.EpsByT...),
		ReportsByUser: make(map[int][]int, len(l.ReportsByUser)),
	}
	for u, ts := range l.ReportsByUser {
		cp.ReportsByUser[u] = append([]int(nil), ts...)
	}
	return cp
}

// RecordRound logs a collection round at timestamp t with per-user budget
// eps and the reporting users. EpsByT grows to cover a t past the timeline
// the ledger was created for.
func (l *Ledger) RecordRound(t int, eps float64, users []int) {
	if t >= len(l.EpsByT) {
		l.EpsByT = append(l.EpsByT, make([]float64, t+1-len(l.EpsByT))...)
	}
	if t >= 0 {
		l.EpsByT[t] += eps
	}
	for _, u := range users {
		l.ReportsByUser[u] = append(l.ReportsByUser[u], t)
	}
}

// MaxWindowSum returns the maximum Σ ε over any w consecutive timestamps.
func (l *Ledger) MaxWindowSum(w int) float64 {
	maxSum, sum := 0.0, 0.0
	for t, e := range l.EpsByT {
		sum += e
		if t >= w {
			sum -= l.EpsByT[t-w]
		}
		if sum > maxSum {
			maxSum = sum
		}
	}
	return maxSum
}

// MaxUserWindowSum returns the maximum per-user Σ ε over any w consecutive
// timestamps, assuming each recorded report of user u at timestamp t spent
// the budget epsAt(t).
func (l *Ledger) MaxUserWindowSum(w int, epsAt func(t int) float64) float64 {
	maxSum := 0.0
	for _, ts := range l.ReportsByUser {
		for i := range ts {
			sum := 0.0
			for j := i; j < len(ts) && ts[j] < ts[i]+w; j++ {
				sum += epsAt(ts[j])
			}
			if sum > maxSum {
				maxSum = sum
			}
		}
	}
	return maxSum
}
