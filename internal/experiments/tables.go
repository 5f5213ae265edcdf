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

// evaluator builds the shared metric options for a dataset at the default φ.
func (e *Env) evaluator(d *Discretized) *metrics.Evaluator {
	return metrics.NewEvaluator(d.Cells, d.Grid, metrics.Options{
		Phi:  e.Params.Phi,
		Seed: e.Params.Seed ^ 0xe7a1,
	})
}

// ---------------------------------------------------------------- Table I

// Table1 reproduces Table I: statistics of the datasets as consumed by the
// pipeline (streams after discretization and gap splitting).
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one dataset's statistics.
type Table1Row struct {
	Dataset string
	Stats   trajectory.Stats
}

// Table1 computes dataset statistics.
func (e *Env) Table1() (*Table1, error) {
	t := &Table1{}
	for _, name := range StandardNames() {
		d, err := e.Dataset(name, e.Params.K)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Table1Row{Dataset: name, Stats: d.Cells.Stats()})
	}
	return t, nil
}

// String renders the table.
func (t *Table1) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — dataset statistics (discretized streams)\n")
	fmt.Fprintf(&b, "%-15s %10s %12s %12s %12s\n", "Dataset", "Size", "#Points", "AvgLength", "Timestamps")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-15s %10d %12d %12.2f %12d\n",
			r.Dataset, r.Stats.Size, r.Stats.NumPoints, r.Stats.AvgLength, r.Stats.Timestamps)
	}
	return b.String()
}

// --------------------------------------------------------------- Table III

// Table3 reproduces Table III: overall utility across privacy budgets.
type Table3 struct {
	Epsilons []float64
	Datasets []string
	Methods  []Method
	// Values[dataset][method][epsilon] = metric report.
	Values map[string]map[Method]map[float64]metrics.Report
}

// Table3 runs the full comparison. Pass nil to use the paper's ε grid.
func (e *Env) Table3(epsilons []float64) (*Table3, error) {
	if len(epsilons) == 0 {
		epsilons = []float64{0.5, 1.0, 1.5, 2.0}
	}
	res := &Table3{
		Epsilons: epsilons,
		Datasets: StandardNames(),
		Methods:  ComparedMethods(),
		Values:   make(map[string]map[Method]map[float64]metrics.Report),
	}
	type job struct {
		dataset  string
		method   Method
		eps      float64
		strategy string
	}
	var jobs []job
	for _, ds := range res.Datasets {
		res.Values[ds] = make(map[Method]map[float64]metrics.Report)
		for _, m := range res.Methods {
			res.Values[ds][m] = make(map[float64]metrics.Report)
			for _, eps := range epsilons {
				strategies := []string{core.StrategyAdaptive}
				if e.Params.BestOf && !m.IsBaseline() {
					strategies = append(strategies, core.StrategyUniform, core.StrategySample)
				}
				for _, s := range strategies {
					jobs = append(jobs, job{dataset: ds, method: m, eps: eps, strategy: s})
				}
			}
		}
	}

	// Pre-generate datasets and evaluators serially (cached thereafter).
	evals := make(map[string]*metrics.Evaluator, len(res.Datasets))
	for _, ds := range res.Datasets {
		d, err := e.Dataset(ds, e.Params.K)
		if err != nil {
			return nil, err
		}
		evals[ds] = e.evaluator(d)
	}

	var mu sync.Mutex
	err := e.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		d, err := e.Dataset(j.dataset, e.Params.K)
		if err != nil {
			return err
		}
		run, err := Run(RunSpec{
			Method:   j.method,
			Strategy: j.strategy,
			Epsilon:  j.eps,
			W:        e.Params.W,
			Seed:     e.Params.Seed ^ uint64(i)<<8,
			Oracle:   e.Params.OracleMode,
		}, d)
		if err != nil {
			return err
		}
		report := evals[j.dataset].Evaluate(run.Syn)
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := res.Values[j.dataset][j.method][j.eps]; ok {
			report = mergeBest(prev, report)
		}
		res.Values[j.dataset][j.method][j.eps] = report
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the table in the paper's layout: one block per metric,
// methods as rows, dataset×ε as columns.
func (t *Table3) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — overall utility (best values per column marked *)\n")
	for _, metric := range AllMetrics() {
		fmt.Fprintf(&b, "\n[%s] %s\n", metric, direction(metric))
		fmt.Fprintf(&b, "%-11s", "Method")
		for _, ds := range t.Datasets {
			for _, eps := range t.Epsilons {
				fmt.Fprintf(&b, " %9s", fmt.Sprintf("%s ε=%.1f", shortName(ds), eps))
			}
		}
		b.WriteByte('\n')
		// Identify best per column.
		best := make(map[string]float64)
		for _, ds := range t.Datasets {
			for _, eps := range t.Epsilons {
				col := colKey(ds, eps)
				first := true
				for _, m := range t.Methods {
					v := MetricValue(t.Values[ds][m][eps], metric)
					if first || better(metric, v, best[col]) {
						best[col] = v
						first = false
					}
				}
			}
		}
		for _, m := range t.Methods {
			fmt.Fprintf(&b, "%-11s", m)
			for _, ds := range t.Datasets {
				for _, eps := range t.Epsilons {
					v := MetricValue(t.Values[ds][m][eps], metric)
					mark := " "
					if v == best[colKey(ds, eps)] {
						mark = "*"
					}
					fmt.Fprintf(&b, " %8.4f%s", v, mark)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func colKey(ds string, eps float64) string { return fmt.Sprintf("%s|%.2f", ds, eps) }

func better(m MetricName, a, b float64) bool {
	if LargerBetter(m) {
		return a > b
	}
	return a < b
}

func direction(m MetricName) string {
	if LargerBetter(m) {
		return "(larger is better)"
	}
	return "(smaller is better)"
}

func shortName(ds string) string {
	switch ds {
	case "TDriveSim":
		return "TD"
	case "OldenburgSim":
		return "OL"
	case "SanJoaquinSim":
		return "SJ"
	default:
		if len(ds) > 2 {
			return ds[:2]
		}
		return ds
	}
}

// ---------------------------------------------------------------- Table IV

// Table4 reproduces Table IV: the AllUpdate and NoEQ ablations at the
// default ε.
type Table4 struct {
	Datasets []string
	Methods  []Method
	// Values[dataset][method] = report.
	Values map[string]map[Method]metrics.Report
}

// Table4 runs the ablation study.
func (e *Env) Table4() (*Table4, error) {
	res := &Table4{
		Datasets: StandardNames(),
		Methods:  AblationMethods(),
		Values:   make(map[string]map[Method]metrics.Report),
	}
	type job struct {
		dataset string
		method  Method
	}
	var jobs []job
	for _, ds := range res.Datasets {
		res.Values[ds] = make(map[Method]metrics.Report)
		for _, m := range res.Methods {
			jobs = append(jobs, job{ds, m})
		}
	}
	evals := make(map[string]*metrics.Evaluator)
	for _, ds := range res.Datasets {
		d, err := e.Dataset(ds, e.Params.K)
		if err != nil {
			return nil, err
		}
		evals[ds] = e.evaluator(d)
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
			Seed:    e.Params.Seed ^ uint64(i)<<9,
			Oracle:  e.Params.OracleMode,
		}, d)
		if err != nil {
			return err
		}
		report := evals[j.dataset].Evaluate(run.Syn)
		mu.Lock()
		res.Values[j.dataset][j.method] = report
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the table: one block per dataset, methods × metrics.
func (t *Table4) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV — ablations: significant-transition selection and entering/quitting events\n")
	for _, ds := range t.Datasets {
		fmt.Fprintf(&b, "\n%s\n%-12s", ds, "Model")
		for _, m := range AllMetrics() {
			fmt.Fprintf(&b, " %11s", abbreviate(m))
		}
		b.WriteByte('\n')
		for _, method := range t.Methods {
			fmt.Fprintf(&b, "%-12s", method)
			r := t.Values[ds][method]
			for _, m := range AllMetrics() {
				fmt.Fprintf(&b, " %11.4f", MetricValue(r, m))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func abbreviate(m MetricName) string {
	switch m {
	case MetricDensity:
		return "Density"
	case MetricQuery:
		return "Query"
	case MetricNDCG:
		return "NDCG"
	case MetricTransition:
		return "Transition"
	case MetricPattern:
		return "PatternF1"
	case MetricKendall:
		return "Kendall"
	case MetricTrip:
		return "Trip"
	case MetricLength:
		return "Length"
	default:
		return string(m)
	}
}

// ---------------------------------------------------------------- Table V

// Table5 reproduces Table V: per-timestamp component efficiency of
// RetraSynP measured on the faithful per-user oracle path.
type Table5 struct {
	Datasets []string
	// Rows[dataset] holds average seconds per timestamp per component.
	Rows map[string]Table5Row
}

// Table5Row decomposes the average per-timestamp processing time.
type Table5Row struct {
	UserSide          float64
	ModelConstruction float64
	DMU               float64
	Synthesis         float64
	Total             float64
}

// Table5 measures component efficiency.
func (e *Env) Table5() (*Table5, error) {
	res := &Table5{Datasets: StandardNames(), Rows: make(map[string]Table5Row)}
	for _, ds := range res.Datasets {
		d, err := e.Dataset(ds, e.Params.K)
		if err != nil {
			return nil, err
		}
		run, err := Run(RunSpec{
			Method:  MethodRetraSynP,
			Epsilon: e.Params.Epsilon,
			W:       e.Params.W,
			Seed:    e.Params.Seed,
			Oracle:  core.PerUser, // faithful client-side perturbation
		}, d)
		if err != nil {
			return nil, err
		}
		st := run.CoreStats
		perTs := func(t time.Duration) float64 {
			if st.Timestamps == 0 {
				return 0
			}
			return t.Seconds() / float64(st.Timestamps)
		}
		res.Rows[ds] = Table5Row{
			UserSide:          perTs(st.Timings.UserSide),
			ModelConstruction: perTs(st.Timings.ModelConstruction),
			DMU:               perTs(st.Timings.DMU),
			Synthesis:         perTs(st.Timings.Synthesis),
			Total:             perTs(st.Timings.Total()),
		}
	}
	return res, nil
}

// String renders the table.
func (t *Table5) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V — component efficiency of RetraSynP (avg seconds per timestamp)\n")
	fmt.Fprintf(&b, "%-28s", "Procedure")
	for _, ds := range t.Datasets {
		fmt.Fprintf(&b, " %14s", ds)
	}
	b.WriteByte('\n')
	rows := []struct {
		name string
		get  func(Table5Row) float64
	}{
		{"User-side Computation", func(r Table5Row) float64 { return r.UserSide }},
		{"Mobility Model Construction", func(r Table5Row) float64 { return r.ModelConstruction }},
		{"Dynamic Mobility Update", func(r Table5Row) float64 { return r.DMU }},
		{"Real-time Synthesis", func(r Table5Row) float64 { return r.Synthesis }},
		{"Total", func(r Table5Row) float64 { return r.Total }},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-28s", row.name)
		for _, ds := range t.Datasets {
			fmt.Fprintf(&b, " %14.6f", row.get(t.Rows[ds]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
