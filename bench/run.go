package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"retrasyn"
	"retrasyn/internal/ldp"
)

// result is what one run prints as the last line of its standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// gates lists the correctness gates that failed.
	gates []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupReps is how often a run generates its inputs; setup_s is the median.
const setupReps = 3

// snapshotReps is how often a run checkpoints the final state. snapshot_ms
// is the fastest: a checkpoint allocates several times the live heap, and
// whether a GC cycle falls into it makes single checkpoints bimodal (145 vs
// 185–250 ms on wire_w20), which the median of five inherits.
const snapshotReps = 5

// minPasses is the least number of passes of a run, however long they take:
// a run whose first pass is disturbed must still have a median pass.
const minPasses = 3

// querySeed draws the range queries of query_err: the same queries for every
// run, so that the metric varies with the release and not with the questions.
const querySeed = 1

// runConfig is one (workload, run).
type runConfig struct {
	workload workload
	seed     uint64
	seconds  float64 // timed phase; a run completes at least minPasses passes
	traced   bool
	toy      bool
	outDir   string // where a traced run writes its spans; "" writes none
}

// run is the state of one run between its stages.
type run struct {
	cfg    runConfig
	lay    layers    // per-layer values gathered so far
	setups []float64 // seconds per set-up
	in     prepared
	tr     *tracer
	// passes in order; in a traced run even passes are traced and odd ones
	// are not, so the two kinds see the same machine state.
	passes []*replay
	live   system // the latest pass's system, until the next pass or the end
	gates  []string
}

// runOnce executes one run in this process: set-up (several times), replay
// passes until the timed phase is used up, then checkpoint, release, utility
// evaluation and the retained-heap measurement. An untraced run yields the
// end-to-end metrics, a traced run the per-layer metrics.
func runOnce(cfg runConfig) (*result, error) {
	tmpDir, err := os.MkdirTemp("", "retrasyn-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)

	begin := time.Now()
	r := &run{cfg: cfg, lay: layers{}}
	defer func() {
		if r.live != nil {
			r.live.close()
		}
	}()
	if err := r.setUp(tmpDir); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := r.timedPhase(); err != nil {
		return nil, err
	}
	walls := values(r.passes, wall)
	res, err := r.finish()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %t: set-up %.2f s ×%d, passes %.2f s, whole run %.1f s\n",
		cfg.workload.name, cfg.seed, cfg.traced, median(r.setups), setupReps, walls, seconds(time.Since(begin)))
	return res, nil
}

func (r *run) setUp(tmpDir string) error {
	for i := 0; i < setupReps; i++ {
		r.in = nil // let the previous inputs go before generating again
		start := time.Now()
		in, err := r.cfg.workload.prepare(r.cfg.seed, tmpDir, r.cfg.toy, r.lay)
		if err != nil {
			return err
		}
		r.in = in
		r.setups = append(r.setups, seconds(time.Since(start)))
	}
	return nil
}

// timedPhase replays the stream on a fresh system, pass after pass, until
// the passes' walls add up to the run's seconds. The last system stays live.
func (r *run) timedPhase() error {
	if r.cfg.traced {
		r.tr = newTracer(gateways)
	}
	var timed time.Duration
	least := minPasses
	if r.cfg.toy {
		least = 2 // one traced, one not
	}
	for i := 0; i < least || timed.Seconds() < r.cfg.seconds; i++ {
		if r.live != nil {
			err := r.live.close()
			r.live = nil
			if err != nil {
				return err
			}
		}
		// Every pass starts from a collected heap handed back to the OS and a
		// fresh high-water mark, so its peak RSS is its own.
		resetPeakRSS()
		var tr *tracer
		if r.cfg.traced && i%2 == 0 {
			tr = r.tr
			tr.setPass(i)
		}
		pass, err := r.in.replay(i, tr)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		pass.pass, pass.traced = i, tr != nil
		r.passes = append(r.passes, pass)
		r.live, pass.sys = pass.sys, nil // the run owns the system now; a kept pass must not pin it
		timed += pass.wall
		if pass.peakRSS, err = peakRSS(); err != nil {
			return err
		}
		if err := r.evaluate(pass); err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
	}
	return nil
}

// evaluate takes the pass's release and its utility against the original,
// between passes and untimed. Each pass has its own perturbation and engine
// seeds, so a run's utility errors are means over independent releases of
// one input: LDP noise moves a single release's errors by a quarter on
// engine_adaptive, the mean of five by a tenth.
func (r *run) evaluate(pass *replay) error {
	syn, err := r.live.release(nil)
	if err != nil {
		return fmt.Errorf("release: %w", err)
	}
	if got := int64(syn.NumPoints()); got != pass.released {
		pass.gate = append(pass.gate, fmt.Sprintf("released %d points, the stream's active users sum to %d", got, pass.released))
	}
	orig, syn, space := r.in.reference(syn, r.live)
	start := time.Now()
	u := retrasyn.EvaluateUtilitySpace(orig, syn, space, retrasyn.UtilityOptions{Seed: querySeed})
	pass.evalS = seconds(time.Since(start))
	pass.utility = [3]float64{u.DensityError, u.TransitionError, u.QueryError}
	return nil
}

// values applies f to every pass.
func values(passes []*replay, f func(*replay) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

func wall(p *replay) float64 { return seconds(p.wall) }

// overPasses is the median over the run's passes of f.
func (r *run) overPasses(f func(*replay) float64) float64 { return median(values(r.passes, f)) }

// passesTraced returns the run's traced (or untraced) passes.
func (r *run) passesTraced(traced bool) []*replay {
	var out []*replay
	for _, p := range r.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// finish measures what follows the timed phase and assembles the result.
func (r *run) finish() (*result, error) {
	cfg, lay, sys := r.cfg, r.lay, r.live
	res := &result{Metrics: map[string]metricValue{}}
	first := r.passes[0]
	for i, p := range r.passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		r.gates = append(r.gates, p.gate...)
		// Every pass replays the same inputs.
		if p.events != first.events || p.released != first.released {
			r.gates = append(r.gates, fmt.Sprintf("pass %d did not replay pass 0's stream: events %d/%d, released points owed %d/%d",
				i, p.events, first.events, p.released, first.released))
		}
	}

	var snapshots []float64
	var checkpoint int64
	runtime.GC() // checkpoints start from a collected heap
	for i := 0; i < snapshotReps; i++ {
		start := time.Now()
		n, err := sys.snapshot()
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		checkpoint = n
		snapshots = append(snapshots, millis(time.Since(start)))
	}
	if cfg.traced {
		if _, err := sys.release(lay); err != nil { // for the layer's fetch metrics
			return nil, fmt.Errorf("release: %w", err)
		}
	}
	released := float64(first.released)
	var errs [3]float64
	for i := range errs {
		for _, p := range r.passes {
			errs[i] += p.utility[i] / float64(len(r.passes))
		}
	}
	if !cfg.toy {
		r.gates = append(r.gates, utilityGate(cfg.workload, cfg.seed, errs)...)
	}
	lay["metrics.evaluate_s"] = r.overPasses(func(p *replay) float64 { return p.evalS })
	rss := r.overPasses(func(p *replay) float64 { return float64(p.peakRSS) })

	if cfg.traced {
		if err := r.traceLayers(); err != nil {
			return nil, err
		}
		lay["bench.trace_overhead"] = median(values(r.passesTraced(true), wall))/median(values(r.passesTraced(false), wall)) - 1
		// Per-pass layer values: the median over the passes that took them.
		perPass := map[string][]float64{}
		for _, p := range r.passes {
			for name, v := range p.lay {
				perPass[name] = append(perPass[name], v)
			}
		}
		for name, vs := range perPass {
			lay[name] = median(vs)
		}
	}
	rounds := 0
	for _, p := range r.passes {
		rounds += len(p.rounds)
	}
	// Percentiles are taken per pass and the median pass reported, so that
	// one disturbed pass cannot move them; a pass has at least 120 rounds,
	// which leaves twelve samples beyond its p90.
	roundP50 := r.overPasses(func(p *replay) float64 { return percentile(durationsMS(p.rounds), 50) })
	roundP90 := r.overPasses(func(p *replay) float64 { return percentile(durationsMS(p.rounds), 90) })
	eventsPerS := r.overPasses(func(p *replay) float64 { return float64(p.events) / seconds(p.wall) })
	cpuPerMEvent := r.overPasses(func(p *replay) float64 { return seconds(p.cpu) / float64(p.events) * 1e6 })
	lay["bench.passes"] = float64(len(r.passes))
	lay["bench.pass_s"] = r.overPasses(wall)
	lay["bench.rounds_sampled"] = float64(rounds)

	// Drop the inputs, the spans and the passes: with only the system itself
	// reachable, the live heap is what the service retains.
	r.in, r.tr, r.passes = nil, nil, nil
	retained := float64(retainedHeap())

	if !cfg.traced {
		values := map[string]float64{
			"setup_s":          median(r.setups),
			"events_per_s":     eventsPerS,
			"round_ms_p50":     roundP50,
			"round_ms_p90":     roundP90,
			"cpu_s_per_mevent": cpuPerMEvent,
			"peak_rss_mb":      rss / mb,
			"retained_heap_mb": retained / mb,
			"checkpoint_mb":    float64(checkpoint) / mb,
			"snapshot_ms":      slices.Min(snapshots),
			"density_err":      errs[0],
			"transition_err":   errs[1],
			"query_err":        errs[2],
		}
		for _, m := range endToEnd {
			v := values[m.Name]
			if !(v > 0) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("end-to-end metric %s = %v; every one must be a positive number", m.Name, v)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	} else {
		if _, wire := sys.(*wireSystem); wire {
			lay["remote.snapshot_ms"] = slices.Min(snapshots)
			if lay["bench.round_attributed_share"] < 0.9 {
				r.gates = append(r.gates, fmt.Sprintf("named spans cover only %.1f%% of the round wall", 100*lay["bench.round_attributed_share"]))
			}
		} else {
			lay["core.snapshot_ms"] = slices.Min(snapshots)
			lay["core.checkpoint_bytes_per_point"] = float64(checkpoint) / released
		}
		lay["synthesis.ns_per_point"] = lay["pipeline.synthesis_s"] * 1e9 / released
		lay["synthesis.retained_bytes_per_point"] = retained / released
		for _, m := range perLayer {
			v := lay[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("per-layer metric %s = %v", m.Name, v)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	r.live = nil
	if err := sys.close(); err != nil {
		return nil, err
	}
	res.gates = r.gates
	res.Correct = len(res.gates) == 0 && res.Failed == 0
	return res, nil
}

// traceLayers writes the spans out and derives the per-layer metrics only a
// traced run can take.
func (r *run) traceLayers() error {
	spans := r.tr.all()
	if r.cfg.outDir != "" {
		if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
			return err
		}
		if err := writeTrace(filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload.name+".jsonl"), spans); err != nil {
			return err
		}
	}
	spanLayers(r.lay, spans, r.passesTraced(true))
	if sharded, ok := r.in.(*enginePrepared); ok && sharded.opts.Shards == 2 && hostCPUs() >= 2 {
		// On one CPU the ratio would measure nothing and stays 0.
		opts := sharded.opts
		opts.Shards, opts.Seed = 1, passSeed(sharded.seed, 0)
		one, err := sharded.replayWith(opts, nil)
		if err != nil {
			return err
		}
		r.lay["pipeline.shards2_speedup"] = seconds(one.wall) / r.overPasses(wall)
	}
	domain, eps := r.in.oue()
	r.lay["ldp.fold_ns_per_report"] = foldInIsolation(domain, eps, r.cfg.seed)
	return nil
}

// utilityGate checks the released database's utility: at the default seed
// against the stored reference (runs are deterministic in the seed, so a
// difference means the release changed), at any other seed against twice it.
func utilityGate(w workload, seed uint64, errs [3]float64) []string {
	names := [3]string{"density_err", "transition_err", "query_err"}
	var out []string
	for i, ref := range w.utility {
		var bound float64
		for _, m := range endToEnd {
			if m.Name == names[i] {
				bound = m.Bound
			}
		}
		switch {
		case seed == defaultSeed && math.Abs(errs[i]-ref) > bound*ref:
			out = append(out, fmt.Sprintf("%s = %.6g at the default seed, reference %.6g ± %.0f%%", names[i], errs[i], ref, 100*bound))
		case errs[i] > 2*ref:
			out = append(out, fmt.Sprintf("%s = %.6g, more than twice the reference %.6g", names[i], errs[i], ref))
		}
	}
	return out
}

// foldInIsolation times the curator's packed fold alone — one worker, one
// round-sized batch of device reports — in ns per report: the base of the
// fold-in-isolation vs fold-in-service gap.
func foldInIsolation(domain int, eps float64, seed uint64) float64 {
	const reports = 4096
	oracle := ldp.MustOUE(domain, eps)
	rng := ldp.NewRand(seed, seed^0x5bd1e995)
	batch := ldp.NewPackedBatch(domain, reports)
	for i := 0; i < reports; i++ {
		oracle.PerturbPackedInto(rng, i%domain, batch.Grow())
	}
	var ns []float64
	for rep := 0; rep < 5; rep++ {
		agg := ldp.NewAggregator(oracle)
		start := time.Now()
		agg.AddPackedBatch(batch, 1)
		ns = append(ns, float64(time.Since(start))/reports)
	}
	return median(ns)
}
