// Command retrasyn runs the private synthesis pipeline end-to-end: load (or
// generate) a trajectory dataset, replay it through RetraSyn or an LDP-IDS
// baseline under w-event ε-LDP, and report the released synthetic database
// and its utility.
//
// Usage:
//
//	retrasyn -dataset tdrive -scale 0.5 -eps 1.0 -w 20 -k 6 -division population
//	retrasyn -in traces.csv -boundsMax 30 -method lpa -out synthetic.csv
//	retrasyn -dataset tdrive -spatial quadtree -max-leaves 48
//	retrasyn -dataset corridor -spatial geofence -fence districts.geojson
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"retrasyn"
	"retrasyn/internal/core"
	"retrasyn/internal/trajectory"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "retrasyn:", err)
		os.Exit(1)
	}
}

// run parses args, rejecting unusable flags before any data is read, and
// runs the pipeline, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("retrasyn", flag.ContinueOnError)
	shared := core.RegisterFlags(fs)
	var (
		dataset = fs.String("dataset", "tdrive", `standard dataset: "tdrive", "oldenburg", "sanjoaquin", "drifting", "corridor" (ignored with -in)`)
		in      = fs.String("in", "", "input raw-trajectory CSV (as written by datagen); -boundsMin/-boundsMax give its bounds")
		scale   = fs.Float64("scale", 0.5, "population scale for generated datasets")
		method  = fs.String("method", "retrasyn", `"retrasyn", "lbd", "lba", "lpd", or "lpa"`)
		shards  = fs.Int("shards", 1, "parallel pipeline shards (users fanned out by ID; 1 = sequential engine)")
		out     = fs.String("out", "", "write the synthetic cell streams to this CSV path")
		quiet   = fs.Bool("quiet", false, "suppress the utility report")
	)
	fs.IntVar(&shared.MonitorWindow, "monitor-window", 0, "enable the live utility monitor with a release sketch of N timestamps (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := shared.Validate(); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be ≥ 1, got %d", *shards)
	}
	if !(*scale > 0) {
		return fmt.Errorf("-scale must be > 0, got %v", *scale)
	}
	raw, bounds, err := loadData(*in, *dataset, *scale, shared)
	if err != nil {
		return err
	}

	// The uniform grid is always built: LDP-IDS baselines and the utility
	// metrics are defined over it. With -spatial quadtree or geofence the
	// engine itself runs on that discretization instead.
	g, err := shared.Grid(bounds)
	if err != nil {
		return err
	}
	space, err := shared.Space(bounds, func() []retrasyn.Point {
		// Fine for the simulated datasets this command usually drives, but on
		// real private data the tree layout would leak hotspot locations
		// outside the ε accounting, so the fallback announces itself loudly.
		fmt.Fprintln(os.Stderr, "retrasyn: WARNING: quadtree density sketch derived from the input stream itself;"+
			" on private data pass -density with a public/historical CSV, or the tree layout leaks hotspots outside the ε-LDP guarantee")
		return retrasyn.DensitySketch(raw)
	})
	if err != nil {
		return err
	}
	orig := retrasyn.Discretize(raw, space)
	stats := orig.Stats()
	fmt.Fprintf(stdout, "input: %s — %d streams, %d points, avg length %.2f, %d timestamps\n",
		orig.Name, stats.Size, stats.NumPoints, stats.AvgLength, stats.Timestamps)
	fmt.Fprintf(stdout, "space: %s — %d cells, %d movement states\n",
		shared.Spatial, space.NumCells(), space.TotalMoveStates())

	var syn *retrasyn.Dataset
	evalSpace := space // discretization the utility report runs over
	switch strings.ToLower(*method) {
	case "retrasyn":
		fw, err := retrasyn.New(retrasyn.Options{
			Discretizer:       space,
			Epsilon:           shared.Epsilon,
			Window:            shared.W,
			Division:          shared.Division,
			Strategy:          shared.Strategy,
			Lambda:            stats.AvgLength,
			Shards:            *shards,
			RediscretizeEvery: shared.RediscretizeEvery,
			RelayoutThreshold: shared.RelayoutThreshold,
			MonitorWindow:     shared.MonitorWindow,
			TriggerPolicy:     shared.TriggerPolicy,
			Seed:              shared.Seed,
		})
		if err != nil {
			return err
		}
		var runStats retrasyn.RunStats
		if shared.RediscretizeEvery > 0 {
			// Adaptive runs replay the raw stream so each timestamp's
			// reports encode against the layout currently in effect.
			syn, runStats, err = fw.RunAdaptive(raw)
		} else {
			syn, runStats, err = fw.Run(orig)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run: %d collection rounds, %d reports, %.3fs total component time\n",
			runStats.Rounds, runStats.TotalReports, runStats.Timings.Total().Seconds())
		if shared.RediscretizeEvery > 0 {
			final := fw.Space()
			fmt.Fprintf(stdout, "relayout: %d migrations, final layout %d cells (%s)\n",
				runStats.Relayouts, final.NumCells(), final.Fingerprint())
			// The release is coherent in the final layout (migrations remap
			// stored cells), so utility compares there.
			evalSpace = final
		}
		if shared.MonitorWindow > 0 {
			h := fw.Health()
			alarms := int64(0)
			for _, s := range h.Signals {
				alarms += s.Alarms
			}
			fmt.Fprintf(stdout, "monitor: status %s, release divergence js %.4f / l1 %.4f, %d alarms\n",
				h.Status, h.DivergenceJS, h.DivergenceL1, alarms)
		}
	case "lbd", "lba", "lpd", "lpa":
		if shared.Spatial != "uniform" {
			return fmt.Errorf("the LDP-IDS baselines are defined over the uniform grid; drop -spatial %s or use -method retrasyn", shared.Spatial)
		}
		if shared.RediscretizeEvery > 0 {
			return fmt.Errorf("the LDP-IDS baselines run on a frozen layout; drop -rediscretize-every or use -method retrasyn")
		}
		bm := map[string]retrasyn.BaselineMethod{
			"lbd": retrasyn.LBD, "lba": retrasyn.LBA, "lpd": retrasyn.LPD, "lpa": retrasyn.LPA,
		}[strings.ToLower(*method)]
		if syn, err = retrasyn.RunBaseline(orig, g, bm, shared.Epsilon, shared.W, shared.Seed); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -method %q (want \"retrasyn\", \"lbd\", \"lba\", \"lpd\", or \"lpa\")", *method)
	}

	synStats := syn.Stats()
	fmt.Fprintf(stdout, "released: %d synthetic streams, %d points\n", synStats.Size, synStats.NumPoints)

	if !*quiet {
		// Utility metrics are discretization-aware: quadtree (and
		// post-migration) runs get first-class reports over their own cells.
		evalOrig := orig
		if evalSpace.Fingerprint() != space.Fingerprint() {
			evalOrig = retrasyn.Discretize(raw, evalSpace)
		}
		r := retrasyn.EvaluateUtilitySpace(evalOrig, syn, evalSpace, retrasyn.UtilityOptions{Seed: shared.Seed})
		fmt.Fprintf(stdout, "\nutility (smaller better unless noted):\n")
		fmt.Fprintf(stdout, "  density error:    %.4f\n", r.DensityError)
		fmt.Fprintf(stdout, "  query error:      %.4f\n", r.QueryError)
		fmt.Fprintf(stdout, "  hotspot NDCG:     %.4f (larger better)\n", r.HotspotNDCG)
		fmt.Fprintf(stdout, "  transition error: %.4f\n", r.TransitionError)
		fmt.Fprintf(stdout, "  pattern F1:       %.4f (larger better)\n", r.PatternF1)
		fmt.Fprintf(stdout, "  kendall tau:      %.4f (larger better)\n", r.KendallTau)
		fmt.Fprintf(stdout, "  trip error:       %.4f\n", r.TripError)
		fmt.Fprintf(stdout, "  length error:     %.4f\n", r.LengthError)
	}

	if *out != "" {
		if err := writeCells(*out, syn); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote synthetic streams to %s\n", *out)
	}
	return nil
}

// writeCells writes d to path as cell-stream CSV. A file that fails to
// close may not be on disk, so the Close error is returned too; every
// error names the path.
func writeCells(path string, d *retrasyn.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trajectory.WriteCells(f, d); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// loadData generates the standard dataset, or reads -in with the flags'
// bounds.
func loadData(in, dataset string, scale float64, shared *core.Flags) (*retrasyn.RawDataset, retrasyn.Bounds, error) {
	if in == "" {
		return retrasyn.StandardDataset(dataset, scale, shared.Seed)
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, retrasyn.Bounds{}, err
	}
	defer f.Close()
	raw, err := trajectory.ReadRaw(f)
	if err != nil {
		return nil, retrasyn.Bounds{}, err
	}
	return raw, shared.Bounds(), nil
}
