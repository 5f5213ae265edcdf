// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Table I (dataset statistics), Table III (overall
// utility), Table IV (ablations), Table V (component efficiency), Figure 3
// (allocation strategies), Figure 4 (window size), Figure 5 (evaluation
// range), Figure 6 (granularity) and Figure 7 (scalability). Each runner
// returns a typed result with a paper-style textual rendering.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"retrasyn/internal/core"
	"retrasyn/internal/datagen"
	"retrasyn/internal/grid"
	"retrasyn/internal/trajectory"
)

// Params are the experiment-wide knobs; zero values select the defaults of
// the paper's Table II (bold values).
type Params struct {
	// Scale multiplies the standard datasets' populations (default 1.0; the
	// benches use a small fraction).
	Scale float64
	// Epsilon is the default privacy budget (Table II default 1.0).
	Epsilon float64
	// W is the default window size (default 20).
	W int
	// Phi is the default evaluation time range φ (default 10).
	Phi int
	// K is the default discretization granularity (default 6).
	K int
	// Seed drives dataset generation and all runs.
	Seed uint64
	// OracleMode selects the LDP simulation path (default Aggregate).
	OracleMode core.OracleMode
	// Parallelism bounds concurrent runs (default NumCPU).
	Parallelism int
	// BestOf mirrors the paper's Table III protocol: RetraSyn cells report
	// the best value among the adaptive/uniform/sample allocation
	// strategies. When false only the adaptive strategy runs.
	BestOf bool
}

// DefaultParams returns the Table II defaults at full scale.
func DefaultParams() Params {
	return Params{
		Scale:       1.0,
		Epsilon:     1.0,
		W:           20,
		Phi:         10,
		K:           6,
		Seed:        2024,
		OracleMode:  core.Aggregate,
		Parallelism: runtime.NumCPU(),
		BestOf:      true,
	}
}

func (p *Params) defaults() {
	if p.Scale <= 0 {
		p.Scale = 1.0
	}
	if p.Epsilon <= 0 {
		p.Epsilon = 1.0
	}
	if p.W <= 0 {
		p.W = 20
	}
	if p.Phi <= 0 {
		p.Phi = 10
	}
	if p.K <= 0 {
		p.K = 6
	}
	if p.Seed == 0 {
		p.Seed = 2024
	}
	if p.Parallelism <= 0 {
		p.Parallelism = runtime.NumCPU()
	}
}

// Env generates and caches the standard datasets and their discretizations.
// It is safe for concurrent use after Prepare.
type Env struct {
	Params Params

	mu   sync.Mutex
	data map[string]*envData
}

type envData struct {
	spec datagen.Spec
	raw  *trajectory.RawDataset
	// byK caches the discretized dataset, its stream, and its grid per
	// granularity K.
	byK map[int]*Discretized
}

// Discretized bundles everything a run needs at one granularity.
type Discretized struct {
	Grid   *grid.System
	Cells  *trajectory.Dataset
	Stream *trajectory.Stream
	Lambda float64 // average stream length, the paper's λ default
}

// NewEnv creates an environment.
func NewEnv(p Params) *Env {
	p.defaults()
	return &Env{Params: p, data: make(map[string]*envData)}
}

// Dataset returns (generating and caching on first use) the named standard
// dataset discretized at granularity k.
func (e *Env) Dataset(name string, k int) (*Discretized, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ed, ok := e.data[name]
	if !ok {
		spec, found := datagen.SpecByName(name)
		if !found {
			return nil, fmt.Errorf("experiments: unknown dataset %q", name)
		}
		raw, err := spec.Generate(e.Params.Scale, e.Params.Seed)
		if err != nil {
			return nil, err
		}
		ed = &envData{spec: spec, raw: raw, byK: make(map[int]*Discretized)}
		e.data[name] = ed
	}
	if d, ok := ed.byK[k]; ok {
		return d, nil
	}
	g, err := grid.New(k, ed.spec.Bounds)
	if err != nil {
		return nil, err
	}
	cells := trajectory.Discretize(ed.raw, g, trajectory.DiscretizeOptions{SplitNonAdjacent: true})
	d := &Discretized{
		Grid:   g,
		Cells:  cells,
		Stream: trajectory.NewStream(cells),
		Lambda: cells.Stats().AvgLength,
	}
	ed.byK[k] = d
	return d, nil
}

// StandardNames lists the dataset names in Table I order.
func StandardNames() []string {
	return []string{"TDriveSim", "OldenburgSim", "SanJoaquinSim"}
}

// forEach runs jobs with bounded parallelism, collecting the first error.
func (e *Env) forEach(n int, job func(i int) error) error {
	sem := make(chan struct{}, e.Params.Parallelism)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := job(i); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}
