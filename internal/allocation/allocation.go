// Package allocation implements RetraSyn's adaptive allocation strategies
// (paper §III-E): portion-based budget division and population division
// driven by the stream deviation Dev_t (Eq. 9) and the recent share of
// significant transitions (Eq. 10), plus the Uniform and Sample baselines,
// and the sliding-window accounting that enforces w-event ε-LDP.
package allocation

import (
	"fmt"
	"math"
)

// Division selects how the privacy resource is split across timestamps.
type Division int

const (
	// Budget divides the privacy budget ε: every reporting user spends ε_t at
	// timestamp t with Σ ε_t ≤ ε over any w-window (Theorem 1).
	Budget Division = iota
	// Population divides the users: a p_t portion of the active users spend
	// the whole ε, then stay silent until recycled after w timestamps.
	Population
)

// String implements fmt.Stringer.
func (d Division) String() string {
	switch d {
	case Budget:
		return "budget"
	case Population:
		return "population"
	default:
		return fmt.Sprintf("Division(%d)", int(d))
	}
}

// Context carries the observable state a strategy may use at timestamp t.
// Everything here is derived from already-perturbed statistics, so strategy
// decisions consume no extra privacy budget (post-processing).
type Context struct {
	T       int     // current timestamp (0-based)
	W       int     // window size w
	Epsilon float64 // total window budget ε
	// WindowUsed is Σ ε_i over the previous w−1 timestamps (budget division).
	WindowUsed float64
	// Dev is the deviation Dev_t of Eq. 9 computed from recent (perturbed)
	// frequency vectors.
	Dev float64
	// SigRatioMean is (1/κ)Σ|S*_i|/|S| over the recent κ timestamps.
	SigRatioMean float64
}

// Decision is a strategy's output for one timestamp.
type Decision struct {
	// Report indicates whether a collection round happens at all.
	Report bool
	// Epsilon is the per-user budget for this round (budget division only).
	Epsilon float64
	// Portion is the fraction of active users to sample (population division
	// only).
	Portion float64
}

// Strategy decides the per-timestamp resource allocation.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Decide returns the allocation for the timestamp described by ctx.
	Decide(ctx Context) Decision
}

// epsilonFloor skips collection rounds whose budget would be so small that
// the OUE variance dwarfs any signal. Expressed as a fraction of the window
// budget ε.
const epsilonFloor = 0.01

// Adaptive is the paper's portion-based adaptive strategy (Eq. 10):
//
//	p_t = min{ α/w · (1 − SigRatioMean) · ln(Dev_t + 1), p_max }
//
// For budget division the allocated budget is p_t · ε_rm with ε_rm the
// unused budget in the current window; for population division p_t is the
// sampled fraction of active users.
type Adaptive struct {
	Division Division
	// Alpha scales the portion; the paper uses α = 8.
	Alpha float64
	// PMax caps the portion; the paper uses 0.6.
	PMax float64
}

// NewAdaptive returns the paper-default adaptive strategy (α=8, p_max=0.6).
func NewAdaptive(div Division) *Adaptive {
	return &Adaptive{Division: div, Alpha: 8, PMax: 0.6}
}

// Name implements Strategy.
func (a *Adaptive) Name() string { return "adaptive-" + a.Division.String() }

// Portion evaluates Eq. 10 for the given context.
func (a *Adaptive) Portion(ctx Context) float64 {
	if ctx.W <= 0 {
		return 0
	}
	p := a.Alpha / float64(ctx.W) * (1 - ctx.SigRatioMean) * math.Log1p(ctx.Dev)
	if p < 0 {
		p = 0
	}
	if p > a.PMax {
		p = a.PMax
	}
	return p
}

// Decide implements Strategy.
func (a *Adaptive) Decide(ctx Context) Decision {
	p := a.Portion(ctx)
	switch a.Division {
	case Budget:
		rm := ctx.Epsilon - ctx.WindowUsed
		if rm < 0 {
			rm = 0
		}
		eps := p * rm
		if eps < epsilonFloor*ctx.Epsilon {
			return Decision{}
		}
		return Decision{Report: true, Epsilon: eps}
	default:
		if p <= 0 {
			return Decision{}
		}
		return Decision{Report: true, Portion: p}
	}
}

// Uniform spreads the resource evenly: ε/w per timestamp (budget division)
// or a 1/w user portion (population division).
type Uniform struct {
	Division Division
}

// Name implements Strategy.
func (u *Uniform) Name() string { return "uniform-" + u.Division.String() }

// Decide implements Strategy.
func (u *Uniform) Decide(ctx Context) Decision {
	if ctx.W <= 0 {
		return Decision{}
	}
	switch u.Division {
	case Budget:
		return Decision{Report: true, Epsilon: ctx.Epsilon / float64(ctx.W)}
	default:
		return Decision{Report: true, Portion: 1 / float64(ctx.W)}
	}
}

// Sample spends everything on the first timestamp of each window: the whole
// ε (budget division) or all active users (population division) report every
// w timestamps; the model is approximated in between.
type Sample struct {
	Division Division
}

// Name implements Strategy.
func (s *Sample) Name() string { return "sample-" + s.Division.String() }

// Decide implements Strategy.
func (s *Sample) Decide(ctx Context) Decision {
	if ctx.W <= 0 || ctx.T%ctx.W != 0 {
		return Decision{}
	}
	switch s.Division {
	case Budget:
		return Decision{Report: true, Epsilon: ctx.Epsilon}
	default:
		return Decision{Report: true, Portion: 1}
	}
}
