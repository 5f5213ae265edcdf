package main

import (
	"fmt"
	"time"

	"retrasyn"
	"retrasyn/internal/monitor"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// engineParams describes an in-process workload: a generator and the
// framework options (all but the discretizer and the seed).
type engineParams struct {
	generate func(toy bool) (*retrasyn.RawDataset, retrasyn.Bounds, error)
	options  retrasyn.Options
	// bootQuadtree, when set, replaces the K×K grid with a quadtree grown
	// from the stream's first bootTimestamps, and the run re-discretizes the
	// raw stream after every layout migration as Framework.RunAdaptive does.
	bootQuadtree *retrasyn.QuadtreeOptions
}

const bootTimestamps = 10

// enginePrepared is a generated stream, discretized under the boot layout.
type enginePrepared struct {
	opts   retrasyn.Options // Seed is set per pass
	seed   uint64
	stream *trajectory.Stream
	grid   *retrasyn.Grid       // K×K, the cells utility is evaluated in
	orig   *retrasyn.Dataset    // the input on the grid
	raw    *retrasyn.RawDataset // adaptive runs only
}

func (p engineParams) prepare(seed uint64, _ string, toy bool, lay layers) (prepared, error) {
	start := time.Now()
	raw, bounds, err := p.generate(toy)
	if err != nil {
		return nil, err
	}
	raw = sample(raw, seed)
	lay.since("datagen.generate_s", start)

	grid, err := retrasyn.NewGrid(gridK, bounds)
	if err != nil {
		return nil, err
	}
	e := &enginePrepared{opts: p.options, seed: seed, grid: grid}
	if p.bootQuadtree != nil {
		start = time.Now()
		var sketch []retrasyn.Point
		for _, tr := range raw.Trajs {
			for i, pt := range tr.Points {
				if tr.Start+i >= bootTimestamps {
					break
				}
				sketch = append(sketch, retrasyn.Point{X: pt.X, Y: pt.Y})
			}
		}
		qt, err := retrasyn.NewQuadtree(bounds, sketch, *p.bootQuadtree)
		if err != nil {
			return nil, err
		}
		lay["spatial.quadtree_build_ms"] = millis(time.Since(start))
		e.opts.Discretizer = qt
		e.raw = raw
		start = time.Now()
		e.stream = discretizeUnsplit(raw, qt)
		lay.since("trajectory.discretize_s", start)
	} else {
		e.opts.Grid = grid
		start = time.Now()
		e.orig = retrasyn.Discretize(raw, grid)
		e.stream = trajectory.NewStream(e.orig)
		lay.since("trajectory.discretize_s", start)
	}
	// Booting the framework is the last part of set-up.
	if _, err := retrasyn.New(e.opts); err != nil {
		return nil, err
	}
	return e, nil
}

// discretizeUnsplit is RunAdaptive's discretization: streams are not split
// at reachability violations, so user numbering is the same under every
// layout.
func discretizeUnsplit(raw *retrasyn.RawDataset, space retrasyn.Discretizer) *trajectory.Stream {
	return trajectory.NewStream(trajectory.Discretize(raw, space, trajectory.DiscretizeOptions{}))
}

// reference compares on the K×K grid. An adaptive run releases in the cells
// of whatever layout it ended on, which differs from run to run; its release
// is carried onto the grid through the cell centers, so that every run's
// errors are measured in the same cells.
func (p *enginePrepared) reference(syn *retrasyn.Dataset, sys system) (orig, release *retrasyn.Dataset, space retrasyn.Discretizer) {
	if p.raw == nil {
		return p.orig, syn, p.grid
	}
	if p.orig == nil { // evaluation only, so not part of set-up
		p.orig = trajectory.Discretize(p.raw, p.grid, trajectory.DiscretizeOptions{})
	}
	layout := sys.(*engineSystem).fw.Space()
	toGrid := make([]retrasyn.Cell, layout.NumCells())
	for c := range toGrid {
		x, y := layout.Center(retrasyn.Cell(c))
		toGrid[c] = p.grid.CellOf(x, y)
	}
	release = &retrasyn.Dataset{Name: syn.Name, T: syn.T, Trajs: make([]retrasyn.CellTrajectory, len(syn.Trajs))}
	for i, tr := range syn.Trajs {
		cells := make([]retrasyn.Cell, len(tr.Cells))
		for j, c := range tr.Cells {
			cells[j] = toGrid[c]
		}
		release.Trajs[i] = retrasyn.CellTrajectory{Start: tr.Start, Cells: cells}
	}
	return p.orig, release, p.grid
}

func (p *enginePrepared) oue() (int, float64) {
	space := p.opts.Discretizer
	if space == nil {
		space = p.opts.Grid
	}
	return transition.NewDomain(space).Size(), p.opts.Epsilon
}

func (p *enginePrepared) replay(pass int, tr *tracer) (*replay, error) {
	opts := p.opts
	opts.Seed = passSeed(p.seed, pass)
	return p.replayWith(opts, tr)
}

// replayWith feeds the stream to a new framework one timestamp at a time.
func (p *enginePrepared) replayWith(opts retrasyn.Options, tr *tracer) (*replay, error) {
	fw, err := retrasyn.New(opts)
	if err != nil {
		return nil, err
	}
	main := tr.buf(bufMain)
	r := &replay{sys: &engineSystem{fw}, lay: layers{}}
	stream := p.stream
	var process, rediscretize, switchMax time.Duration

	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for t := 0; t < stream.T; t++ {
		events := stream.At(t)
		gen := fw.LayoutGeneration()
		s := main.begin("core.process", t, 0)
		roundStart := time.Now()
		err := fw.ProcessTimestamp(events, stream.Active[t])
		round := time.Since(roundStart)
		main.end(s)
		if err != nil {
			return nil, err
		}
		r.rounds = append(r.rounds, round)
		process += round
		r.events += int64(len(events))
		r.released += int64(stream.Active[t])
		if fw.LayoutGeneration() != gen {
			switchMax = max(switchMax, round)
			s := main.begin("trajectory.rediscretize", t, 0)
			reStart := time.Now()
			stream = discretizeUnsplit(p.raw, fw.Space())
			rediscretize += time.Since(reStart)
			main.end(s)
		}
	}
	r.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0

	st := fw.Stats()
	r.reports = int64(st.TotalReports)
	r.attempted = r.events + int64(stream.T)
	// Shards run side by side and their stage timers are summed, so the
	// share of the round the timers explain is their per-shard mean.
	stages := st.Timings.Total() / time.Duration(max(1, opts.Shards))
	r.lay["pipeline.user_side_s"] = seconds(st.Timings.UserSide)
	r.lay["pipeline.model_construction_s"] = seconds(st.Timings.ModelConstruction)
	r.lay["pipeline.dmu_s"] = seconds(st.Timings.DMU)
	r.lay["pipeline.synthesis_s"] = seconds(st.Timings.Synthesis)
	r.lay["core.process_s"] = seconds(process)
	r.lay["core.unattributed_s"] = seconds(process - stages)
	if opts.FaithfulClients && st.TotalReports > 0 {
		r.lay["ldp.perturb_ns_per_report"] = float64(st.Timings.UserSide) / float64(st.TotalReports)
	}
	r.lay["allocation.reports_per_event"] = float64(st.TotalReports) / float64(r.events)
	r.lay["allocation.rounds_collecting"] = float64(st.Rounds)
	r.lay["relayout.migrations"] = float64(fw.LayoutGeneration())
	r.lay["relayout.switch_round_ms_max"] = millis(switchMax)
	r.lay["trajectory.rediscretize_s"] = seconds(rediscretize)
	h := fw.Health()
	r.lay["monitor.final_divergence_js"] = h.DivergenceJS
	for _, sig := range h.Signals {
		r.lay["monitor.alarms"] += float64(sig.Alarms)
	}
	if p.raw != nil {
		if fw.LayoutGeneration() < 1 {
			r.gate = append(r.gate, "adaptive run never migrated its layout")
		}
		if h.Status == monitor.StatusFailing {
			r.gate = append(r.gate, "utility monitor reports failing at the end of the adaptive run")
		}
	}
	return r, nil
}

// engineSystem is an in-process framework after a replay.
type engineSystem struct{ fw *retrasyn.Framework }

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (s *engineSystem) snapshot() (int64, error) {
	cp, err := s.fw.Snapshot()
	if err != nil {
		return 0, err
	}
	var w countingWriter
	if err := cp.Encode(&w); err != nil {
		return 0, fmt.Errorf("encoding checkpoint: %w", err)
	}
	return w.n, nil
}

func (s *engineSystem) release(lay layers) (*retrasyn.Dataset, error) {
	start := time.Now()
	syn := s.fw.Synthetic("syn")
	if lay != nil {
		lay["core.synthetic_ms"] = millis(time.Since(start))
	}
	return syn, nil
}

func (s *engineSystem) close() error { return nil }
