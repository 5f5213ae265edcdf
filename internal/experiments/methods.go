package experiments

import (
	"fmt"

	"retrasyn/internal/allocation"
	"retrasyn/internal/core"
	"retrasyn/internal/ldpids"
	"retrasyn/internal/trajectory"
)

// Method identifies one of the compared systems.
type Method int

const (
	// MethodLBD .. MethodLPA are the LDP-IDS baselines.
	MethodLBD Method = iota
	MethodLBA
	MethodLPD
	MethodLPA
	// MethodRetraSynB / MethodRetraSynP are the paper's budget- and
	// population-division RetraSyn variants.
	MethodRetraSynB
	MethodRetraSynP
	// Ablations (Table IV).
	MethodAllUpdateB
	MethodAllUpdateP
	MethodNoEQB
	MethodNoEQP
)

// String implements fmt.Stringer using the paper's labels.
func (m Method) String() string {
	switch m {
	case MethodLBD:
		return "LBD"
	case MethodLBA:
		return "LBA"
	case MethodLPD:
		return "LPD"
	case MethodLPA:
		return "LPA"
	case MethodRetraSynB:
		return "RetraSynB"
	case MethodRetraSynP:
		return "RetraSynP"
	case MethodAllUpdateB:
		return "AllUpdateB"
	case MethodAllUpdateP:
		return "AllUpdateP"
	case MethodNoEQB:
		return "NoEQB"
	case MethodNoEQP:
		return "NoEQP"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// IsBaseline reports whether the method is an LDP-IDS mechanism.
func (m Method) IsBaseline() bool { return m <= MethodLPA }

// Division returns the resource division the method uses.
func (m Method) Division() allocation.Division {
	switch m {
	case MethodLBD, MethodLBA, MethodRetraSynB, MethodAllUpdateB, MethodNoEQB:
		return allocation.Budget
	default:
		return allocation.Population
	}
}

// ComparedMethods lists the six methods of Table III in row order.
func ComparedMethods() []Method {
	return []Method{MethodLBD, MethodLBA, MethodLPD, MethodLPA, MethodRetraSynB, MethodRetraSynP}
}

// AblationMethods lists the six rows of Table IV in order.
func AblationMethods() []Method {
	return []Method{MethodAllUpdateB, MethodAllUpdateP, MethodNoEQB, MethodNoEQP, MethodRetraSynB, MethodRetraSynP}
}

// RunSpec fully describes one system run.
type RunSpec struct {
	Method   Method
	Strategy string // RetraSyn methods only: a core strategy name; default adaptive
	Epsilon  float64
	W        int
	Seed     uint64
	Oracle   core.OracleMode
}

// RunResult is the released synthetic dataset plus engine statistics.
type RunResult struct {
	Syn *trajectory.Dataset
	// CoreStats is populated for RetraSyn methods (timings for Table V,
	// Figures 6–7); nil for baselines.
	CoreStats *core.RunStats
}

// Run executes one system over the discretized dataset.
func Run(spec RunSpec, d *Discretized) (*RunResult, error) {
	if spec.Method.IsBaseline() {
		e, err := ldpids.New(ldpids.Options{
			Grid:       d.Grid,
			Epsilon:    spec.Epsilon,
			W:          spec.W,
			Method:     baselineMethod(spec.Method),
			OracleMode: spec.Oracle,
			Seed:       spec.Seed,
		})
		if err != nil {
			return nil, err
		}
		syn, _ := e.Run(d.Stream, d.Cells.Name+"-"+spec.Method.String())
		return &RunResult{Syn: syn}, nil
	}

	opts := core.Options{
		Config: core.Config{
			Space:    d.Grid,
			Epsilon:  spec.Epsilon,
			W:        spec.W,
			Division: spec.Method.Division(),
			Strategy: spec.Strategy,
			Lambda:   d.Lambda,
			Seed:     spec.Seed,
		},
		OracleMode: spec.Oracle,
	}
	switch spec.Method {
	case MethodAllUpdateB, MethodAllUpdateP:
		opts.DisableDMU = true
	case MethodNoEQB, MethodNoEQP:
		opts.DisableEQ = true
		opts.Lambda = 0
	}
	if opts.DisableEQ {
		opts.Lambda = 0
	}
	e, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	syn, stats := e.Run(d.Stream, d.Cells.Name+"-"+spec.Method.String())
	return &RunResult{Syn: syn, CoreStats: &stats}, nil
}

func baselineMethod(m Method) ldpids.Method {
	switch m {
	case MethodLBD:
		return ldpids.LBD
	case MethodLBA:
		return ldpids.LBA
	case MethodLPD:
		return ldpids.LPD
	default:
		return ldpids.LPA
	}
}
