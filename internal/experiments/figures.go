package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"retrasyn/internal/core"
	"retrasyn/internal/metrics"
	"retrasyn/internal/trajectory"
)

// figureDatasets are the two datasets the paper plots in Figures 3–5.
func figureDatasets() []string { return []string{"TDriveSim", "OldenburgSim"} }

// ---------------------------------------------------------------- Figure 3

// Fig3 compares allocation strategies (paper Figure 3): Adaptive and
// Uniform in both divisions plus Sample (identical in both divisions: all
// active users spend the whole ε at each window start).
type Fig3 struct {
	Datasets   []string
	Strategies []string
	// Values[dataset][strategy] = report.
	Values map[string]map[string]metrics.Report
}

// fig3Spec maps a display label to a run configuration.
type fig3Spec struct {
	label    string
	method   Method
	strategy string
}

func fig3Specs() []fig3Spec {
	return []fig3Spec{
		{"AdaptiveB", MethodRetraSynB, core.StrategyAdaptive},
		{"AdaptiveP", MethodRetraSynP, core.StrategyAdaptive},
		{"UniformB", MethodRetraSynB, core.StrategyUniform},
		{"UniformP", MethodRetraSynP, core.StrategyUniform},
		{"Sample", MethodRetraSynP, core.StrategySample},
	}
}

// Fig3 runs the allocation-strategy comparison.
func (e *Env) Fig3() (*Fig3, error) {
	specs := fig3Specs()
	res := &Fig3{
		Datasets: figureDatasets(),
		Values:   make(map[string]map[string]metrics.Report),
	}
	for _, s := range specs {
		res.Strategies = append(res.Strategies, s.label)
	}
	type job struct {
		dataset string
		spec    fig3Spec
	}
	var jobs []job
	for _, ds := range res.Datasets {
		res.Values[ds] = make(map[string]metrics.Report)
		for _, s := range specs {
			jobs = append(jobs, job{ds, s})
		}
	}
	evals, err := e.prepEvaluators(res.Datasets)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	err = e.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		d, err := e.Dataset(j.dataset, e.Params.K)
		if err != nil {
			return err
		}
		run, err := Run(RunSpec{
			Method:   j.spec.method,
			Strategy: j.spec.strategy,
			Epsilon:  e.Params.Epsilon,
			W:        e.Params.W,
			Seed:     e.Params.Seed ^ uint64(i)<<10,
			Oracle:   e.Params.OracleMode,
		}, d)
		if err != nil {
			return err
		}
		report := evals[j.dataset].Evaluate(run.Syn)
		mu.Lock()
		res.Values[j.dataset][j.spec.label] = report
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the figure's series as rows.
func (f *Fig3) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — impact of allocation strategy\n")
	for _, ds := range f.Datasets {
		fmt.Fprintf(&b, "\n%s\n%-11s %12s %12s %12s\n", ds, "Strategy", "Transition", "Query", "KendallTau")
		for _, s := range f.Strategies {
			r := f.Values[ds][s]
			fmt.Fprintf(&b, "%-11s %12.4f %12.4f %12.4f\n",
				s, r.TransitionError, r.QueryError, r.KendallTau)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 4

// Fig4 sweeps the window size w (paper Figure 4) over the six compared
// methods, reporting transition, query, and trip errors.
type Fig4 struct {
	Datasets []string
	Windows  []int
	Methods  []Method
	// Values[dataset][method][w] = report.
	Values map[string]map[Method]map[int]metrics.Report
}

// Fig4 runs the window-size sweep. Pass nil for the paper's grid.
func (e *Env) Fig4(windows []int) (*Fig4, error) {
	if len(windows) == 0 {
		windows = []int{10, 20, 30, 40, 50}
	}
	res := &Fig4{
		Datasets: figureDatasets(),
		Windows:  windows,
		Methods:  ComparedMethods(),
		Values:   make(map[string]map[Method]map[int]metrics.Report),
	}
	type job struct {
		dataset string
		method  Method
		w       int
	}
	var jobs []job
	for _, ds := range res.Datasets {
		res.Values[ds] = make(map[Method]map[int]metrics.Report)
		for _, m := range res.Methods {
			res.Values[ds][m] = make(map[int]metrics.Report)
			for _, w := range windows {
				jobs = append(jobs, job{ds, m, w})
			}
		}
	}
	evals, err := e.prepEvaluators(res.Datasets)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	err = e.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		d, err := e.Dataset(j.dataset, e.Params.K)
		if err != nil {
			return err
		}
		run, err := Run(RunSpec{
			Method:  j.method,
			Epsilon: e.Params.Epsilon,
			W:       j.w,
			Seed:    e.Params.Seed ^ uint64(i)<<11,
			Oracle:  e.Params.OracleMode,
		}, d)
		if err != nil {
			return err
		}
		report := evals[j.dataset].Evaluate(run.Syn)
		mu.Lock()
		res.Values[j.dataset][j.method][j.w] = report
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders one block per dataset×metric with w as columns.
func (f *Fig4) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — impact of window size w\n")
	for _, ds := range f.Datasets {
		for _, metric := range []MetricName{MetricTransition, MetricQuery, MetricTrip} {
			fmt.Fprintf(&b, "\n%s / %s\n%-11s", ds, metric, "Method")
			for _, w := range f.Windows {
				fmt.Fprintf(&b, " %8s", fmt.Sprintf("w=%d", w))
			}
			b.WriteByte('\n')
			for _, m := range f.Methods {
				fmt.Fprintf(&b, "%-11s", m)
				for _, w := range f.Windows {
					fmt.Fprintf(&b, " %8.4f", MetricValue(f.Values[ds][m][w], metric))
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 5

// Fig5 sweeps the evaluation time-range size φ (paper Figure 5). φ only
// affects evaluation, so each method runs once and is re-evaluated per φ.
type Fig5 struct {
	Datasets []string
	Phis     []int
	Methods  []Method
	// Values[dataset][method][phi] = report.
	Values map[string]map[Method]map[int]metrics.Report
}

// Fig5 runs the φ sweep. Pass nil for the paper's grid.
func (e *Env) Fig5(phis []int) (*Fig5, error) {
	if len(phis) == 0 {
		phis = []int{5, 10, 20, 50, 100}
	}
	res := &Fig5{
		Datasets: figureDatasets(),
		Phis:     phis,
		Methods:  ComparedMethods(),
		Values:   make(map[string]map[Method]map[int]metrics.Report),
	}
	type job struct {
		dataset string
		method  Method
	}
	var jobs []job
	for _, ds := range res.Datasets {
		res.Values[ds] = make(map[Method]map[int]metrics.Report)
		for _, m := range res.Methods {
			res.Values[ds][m] = make(map[int]metrics.Report)
			jobs = append(jobs, job{ds, m})
		}
	}
	// Pre-generate datasets (evaluators are per-φ below).
	for _, ds := range res.Datasets {
		if _, err := e.Dataset(ds, e.Params.K); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	err := e.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		d, err := e.Dataset(j.dataset, e.Params.K)
		if err != nil {
			return err
		}
		run, err := Run(RunSpec{
			Method:  j.method,
			Epsilon: e.Params.Epsilon,
			W:       e.Params.W,
			Seed:    e.Params.Seed ^ uint64(i)<<12,
			Oracle:  e.Params.OracleMode,
		}, d)
		if err != nil {
			return err
		}
		for _, phi := range res.Phis {
			ev := metrics.NewEvaluator(d.Cells, d.Grid, metrics.Options{
				Phi:  phi,
				Seed: e.Params.Seed ^ 0xe7a1,
			})
			report := ev.Evaluate(run.Syn)
			mu.Lock()
			res.Values[j.dataset][j.method][phi] = report
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders one block per dataset×metric with φ as columns.
func (f *Fig5) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — impact of evaluation time range φ\n")
	for _, ds := range f.Datasets {
		for _, metric := range []MetricName{MetricQuery, MetricPattern, MetricNDCG} {
			fmt.Fprintf(&b, "\n%s / %s\n%-11s", ds, metric, "Method")
			for _, phi := range f.Phis {
				fmt.Fprintf(&b, " %8s", fmt.Sprintf("φ=%d", phi))
			}
			b.WriteByte('\n')
			for _, m := range f.Methods {
				fmt.Fprintf(&b, "%-11s", m)
				for _, phi := range f.Phis {
					fmt.Fprintf(&b, " %8.4f", MetricValue(f.Values[ds][m][phi], metric))
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 6

// Fig6 sweeps the discretization granularity K (paper Figure 6), reporting
// query error and average runtime per timestamp for both RetraSyn variants.
type Fig6 struct {
	Datasets []string
	Ks       []int
	// Query[dataset][method][K] and Runtime[dataset][method][K] (seconds).
	Query   map[string]map[Method]map[int]float64
	Runtime map[string]map[Method]map[int]float64
}

// Fig6 runs the granularity sweep. Pass nil for the paper's grid.
func (e *Env) Fig6(ks []int) (*Fig6, error) {
	if len(ks) == 0 {
		ks = []int{2, 6, 10, 14, 18}
	}
	methods := []Method{MethodRetraSynB, MethodRetraSynP}
	res := &Fig6{
		Datasets: StandardNames(),
		Ks:       ks,
		Query:    make(map[string]map[Method]map[int]float64),
		Runtime:  make(map[string]map[Method]map[int]float64),
	}
	type job struct {
		dataset string
		method  Method
		k       int
	}
	var jobs []job
	for _, ds := range res.Datasets {
		res.Query[ds] = make(map[Method]map[int]float64)
		res.Runtime[ds] = make(map[Method]map[int]float64)
		for _, m := range methods {
			res.Query[ds][m] = make(map[int]float64)
			res.Runtime[ds][m] = make(map[int]float64)
			for _, k := range ks {
				jobs = append(jobs, job{ds, m, k})
			}
		}
	}
	// Serial pre-generation of all (dataset, K) discretizations.
	for _, ds := range res.Datasets {
		for _, k := range ks {
			if _, err := e.Dataset(ds, k); err != nil {
				return nil, err
			}
		}
	}
	var mu sync.Mutex
	err := e.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		d, err := e.Dataset(j.dataset, j.k)
		if err != nil {
			return err
		}
		start := time.Now()
		run, err := Run(RunSpec{
			Method:  j.method,
			Epsilon: e.Params.Epsilon,
			W:       e.Params.W,
			Seed:    e.Params.Seed ^ uint64(i)<<13,
			Oracle:  e.Params.OracleMode,
		}, d)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		ev := metrics.NewEvaluator(d.Cells, d.Grid, metrics.Options{
			Phi:  e.Params.Phi,
			Seed: e.Params.Seed ^ 0xe7a1,
		})
		report := ev.Evaluate(run.Syn)
		mu.Lock()
		res.Query[j.dataset][j.method][j.k] = report.QueryError
		res.Runtime[j.dataset][j.method][j.k] = elapsed.Seconds() / float64(d.Cells.T)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders query error and runtime per dataset with K as columns.
func (f *Fig6) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — impact of discretization granularity K\n")
	for _, ds := range f.Datasets {
		fmt.Fprintf(&b, "\n%s\n%-24s", ds, "Series")
		for _, k := range f.Ks {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("K=%d", k))
		}
		b.WriteByte('\n')
		for _, m := range []Method{MethodRetraSynB, MethodRetraSynP} {
			fmt.Fprintf(&b, "%-24s", fmt.Sprintf("%s query error", m))
			for _, k := range f.Ks {
				fmt.Fprintf(&b, " %9.4f", f.Query[ds][m][k])
			}
			b.WriteByte('\n')
		}
		for _, m := range []Method{MethodRetraSynB, MethodRetraSynP} {
			fmt.Fprintf(&b, "%-24s", fmt.Sprintf("%s runtime (s/ts)", m))
			for _, k := range f.Ks {
				fmt.Fprintf(&b, " %9.5f", f.Runtime[ds][m][k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 7

// Fig7 sweeps the dataset size (paper Figure 7), reporting average runtime
// per timestamp for both RetraSyn variants.
type Fig7 struct {
	Datasets  []string
	Fractions []float64
	// Runtime[dataset][method][fraction] in seconds per timestamp.
	Runtime map[string]map[Method]map[float64]float64
}

// Fig7 runs the scalability sweep. Pass nil for the paper's fractions.
func (e *Env) Fig7(fractions []float64) (*Fig7, error) {
	if len(fractions) == 0 {
		fractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	methods := []Method{MethodRetraSynB, MethodRetraSynP}
	res := &Fig7{
		Datasets:  StandardNames(),
		Fractions: fractions,
		Runtime:   make(map[string]map[Method]map[float64]float64),
	}
	type job struct {
		dataset  string
		method   Method
		fraction float64
	}
	var jobs []job
	for _, ds := range res.Datasets {
		res.Runtime[ds] = make(map[Method]map[float64]float64)
		for _, m := range methods {
			res.Runtime[ds][m] = make(map[float64]float64)
			for _, f := range fractions {
				jobs = append(jobs, job{ds, m, f})
			}
		}
	}
	for _, ds := range res.Datasets {
		if _, err := e.Dataset(ds, e.Params.K); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	err := e.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		d, err := e.Dataset(j.dataset, e.Params.K)
		if err != nil {
			return err
		}
		n := int(float64(len(d.Cells.Trajs)) * j.fraction)
		sub := d.Cells.Subset(n)
		dd := &Discretized{
			Grid:   d.Grid,
			Cells:  sub,
			Stream: trajectory.NewStream(sub),
			Lambda: d.Lambda,
		}
		start := time.Now()
		if _, err := Run(RunSpec{
			Method:  j.method,
			Epsilon: e.Params.Epsilon,
			W:       e.Params.W,
			Seed:    e.Params.Seed ^ uint64(i)<<14,
			Oracle:  e.Params.OracleMode,
		}, dd); err != nil {
			return err
		}
		elapsed := time.Since(start)
		mu.Lock()
		res.Runtime[j.dataset][j.method][j.fraction] = elapsed.Seconds() / float64(sub.T)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the runtime series per dataset.
func (f *Fig7) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — scalability (avg seconds per timestamp)\n")
	for _, ds := range f.Datasets {
		fmt.Fprintf(&b, "\n%s\n%-12s", ds, "Method")
		for _, fr := range f.Fractions {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("%.0f%%", fr*100))
		}
		b.WriteByte('\n')
		for _, m := range []Method{MethodRetraSynB, MethodRetraSynP} {
			fmt.Fprintf(&b, "%-12s", m)
			for _, fr := range f.Fractions {
				fmt.Fprintf(&b, " %9.5f", f.Runtime[ds][m][fr])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// prepEvaluators builds the default-φ evaluators for several datasets
// serially (dataset generation is cached under the env lock).
func (e *Env) prepEvaluators(names []string) (map[string]*metrics.Evaluator, error) {
	out := make(map[string]*metrics.Evaluator, len(names))
	for _, ds := range names {
		d, err := e.Dataset(ds, e.Params.K)
		if err != nil {
			return nil, err
		}
		out[ds] = e.evaluator(d)
	}
	return out, nil
}
