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
	"flag"
	"fmt"
	"os"
	"strings"

	"retrasyn"
	"retrasyn/internal/trajectory"
)

func main() {
	var (
		dataset     = flag.String("dataset", "tdrive", `standard dataset: "tdrive", "oldenburg", "sanjoaquin", "drifting", "corridor" (ignored with -in)`)
		in          = flag.String("in", "", "input raw-trajectory CSV (as written by datagen)")
		boundMin    = flag.Float64("boundsMin", 0, "spatial lower bound for -in data (both axes)")
		boundMax    = flag.Float64("boundsMax", 30, "spatial upper bound for -in data (both axes)")
		scale       = flag.Float64("scale", 0.5, "population scale for generated datasets")
		k           = flag.Int("k", 6, "grid granularity K")
		eps         = flag.Float64("eps", 1.0, "privacy budget ε")
		w           = flag.Int("w", 20, "window size w")
		division    = flag.String("division", "population", `"budget" or "population"`)
		strategy    = flag.String("strategy", "adaptive", `"adaptive", "uniform", or "sample"`)
		method      = flag.String("method", "retrasyn", `"retrasyn", "lbd", "lba", "lpd", or "lpa"`)
		shards      = flag.Int("shards", 1, "parallel pipeline shards (users fanned out by ID; 1 = sequential engine)")
		spatialKind = flag.String("spatial", "uniform", `spatial discretization: "uniform" (K×K grid), "quadtree" (density-adaptive) or "geofence" (polygonal, requires -fence)`)
		maxLeaves   = flag.Int("max-leaves", 64, "quadtree leaf budget (-spatial quadtree)")
		fence       = flag.String("fence", "", "GeoJSON fence file whose polygons become the cells (-spatial geofence)")
		density     = flag.String("density", "", "public/historical raw-trajectory CSV seeding the quadtree density sketch; omitted, the sketch falls back to the input itself (simulation only — see the printed warning)")
		rediscEvery = flag.Int("rediscretize-every", 0, "rebuild the spatial layout from the released stream every N windows and migrate when it drifted (0 = frozen layout)")
		relayoutThr = flag.Float64("relayout-threshold", 0, "minimum layout distance in [0,1) for a rebuilt layout to replace the current one (0 = default 0.1)")
		monitorWin  = flag.Int("monitor-window", 0, "enable the live utility monitor with a release sketch of N timestamps (0 = off)")
		trigger     = flag.String("trigger", "", `relayout trigger policy: "geometric" (default), "degradation-or" or "degradation-and" (combine the distance threshold with utility-monitor alarms; need -monitor-window and -rediscretize-every)`)
		seed        = flag.Uint64("seed", 2024, "run seed")
		out         = flag.String("out", "", "write the synthetic cell streams to this CSV path")
		quiet       = flag.Bool("quiet", false, "suppress the utility report")
	)
	flag.Parse()

	if err := validateFlags(*k, *eps, *w, *shards, *scale, *boundMin, *boundMax, *spatialKind, *maxLeaves, *fence); err != nil {
		fatal(err)
	}
	if *rediscEvery < 0 {
		fatal(fmt.Errorf("-rediscretize-every must be ≥ 0, got %d", *rediscEvery))
	}
	if *relayoutThr < 0 || *relayoutThr >= 1 {
		fatal(fmt.Errorf("-relayout-threshold must be in [0,1), got %v", *relayoutThr))
	}
	if *monitorWin < 0 {
		fatal(fmt.Errorf("-monitor-window must be ≥ 0, got %d", *monitorWin))
	}
	if err := retrasyn.TriggerPolicy(*trigger).Validate(); err != nil {
		fatal(fmt.Errorf("-trigger: %v", err))
	}
	raw, bounds, err := loadData(*in, *dataset, *scale, *seed, *boundMin, *boundMax)
	if err != nil {
		fatal(err)
	}

	// The uniform grid is always built: LDP-IDS baselines and the utility
	// metrics are defined over it. With -spatial quadtree the engine itself
	// runs on the density-adaptive tree instead.
	g, err := retrasyn.NewGrid(*k, bounds)
	if err != nil {
		fatal(err)
	}
	var space retrasyn.Discretizer = g
	switch *spatialKind {
	case "quadtree":
		sketch, err := loadSketch(*density, raw)
		if err != nil {
			fatal(err)
		}
		qt, err := retrasyn.NewQuadtree(bounds, sketch, retrasyn.QuadtreeOptions{MaxLeaves: *maxLeaves})
		if err != nil {
			fatal(err)
		}
		space = qt
	case "geofence":
		gf, err := loadFence(*fence)
		if err != nil {
			fatal(err)
		}
		space = gf
	}
	orig := retrasyn.Discretize(raw, space)
	stats := orig.Stats()
	fmt.Printf("input: %s — %d streams, %d points, avg length %.2f, %d timestamps\n",
		orig.Name, stats.Size, stats.NumPoints, stats.AvgLength, stats.Timestamps)
	fmt.Printf("space: %s — %d cells, %d movement states\n",
		*spatialKind, space.NumCells(), space.TotalMoveStates())

	var syn *retrasyn.Dataset
	evalSpace := space // discretization the utility report runs over
	switch strings.ToLower(*method) {
	case "retrasyn":
		div := retrasyn.PopulationDivision
		if *division == "budget" {
			div = retrasyn.BudgetDivision
		} else if *division != "population" {
			fatal(fmt.Errorf("unknown -division %q (want \"budget\" or \"population\")", *division))
		}
		fw, err := retrasyn.New(retrasyn.Options{
			Discretizer:       space,
			Epsilon:           *eps,
			Window:            *w,
			Division:          div,
			Strategy:          *strategy,
			Lambda:            stats.AvgLength,
			Shards:            *shards,
			RediscretizeEvery: *rediscEvery,
			RelayoutThreshold: *relayoutThr,
			MonitorWindow:     *monitorWin,
			TriggerPolicy:     retrasyn.TriggerPolicy(*trigger),
			Seed:              *seed,
		})
		if err != nil {
			fatal(err)
		}
		var runStats retrasyn.RunStats
		if *rediscEvery > 0 {
			// Adaptive runs replay the raw stream so each timestamp's
			// reports encode against the layout currently in effect.
			syn, runStats, err = fw.RunAdaptive(raw)
		} else {
			syn, runStats, err = fw.Run(orig)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("run: %d collection rounds, %d reports, %.3fs total component time\n",
			runStats.Rounds, runStats.TotalReports, runStats.Timings.Total().Seconds())
		if *rediscEvery > 0 {
			final := fw.Space()
			fmt.Printf("relayout: %d migrations, final layout %d cells (%s)\n",
				runStats.Relayouts, final.NumCells(), final.Fingerprint())
			// The release is coherent in the final layout (migrations remap
			// stored cells), so utility compares there.
			evalSpace = final
		}
		if *monitorWin > 0 {
			h := fw.Health()
			alarms := int64(0)
			for _, s := range h.Signals {
				alarms += s.Alarms
			}
			fmt.Printf("monitor: status %s, release divergence js %.4f / l1 %.4f, %d alarms\n",
				h.Status, h.DivergenceJS, h.DivergenceL1, alarms)
		}
	case "lbd", "lba", "lpd", "lpa":
		if *spatialKind != "uniform" {
			fatal(fmt.Errorf("the LDP-IDS baselines are defined over the uniform grid; drop -spatial %s or use -method retrasyn", *spatialKind))
		}
		if *rediscEvery > 0 {
			fatal(fmt.Errorf("the LDP-IDS baselines run on a frozen layout; drop -rediscretize-every or use -method retrasyn"))
		}
		bm := map[string]retrasyn.BaselineMethod{
			"lbd": retrasyn.LBD, "lba": retrasyn.LBA, "lpd": retrasyn.LPD, "lpa": retrasyn.LPA,
		}[strings.ToLower(*method)]
		syn, err = retrasyn.RunBaseline(orig, g, bm, *eps, *w, *seed)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -method %q (want \"retrasyn\", \"lbd\", \"lba\", \"lpd\", or \"lpa\")", *method))
	}

	synStats := syn.Stats()
	fmt.Printf("released: %d synthetic streams, %d points\n", synStats.Size, synStats.NumPoints)

	if !*quiet {
		// Utility metrics are discretization-aware: quadtree (and
		// post-migration) runs get first-class reports over their own cells.
		evalOrig := orig
		if evalSpace.Fingerprint() != space.Fingerprint() {
			evalOrig = retrasyn.Discretize(raw, evalSpace)
		}
		r := retrasyn.EvaluateUtilitySpace(evalOrig, syn, evalSpace, retrasyn.UtilityOptions{Seed: *seed})
		fmt.Printf("\nutility (smaller better unless noted):\n")
		fmt.Printf("  density error:    %.4f\n", r.DensityError)
		fmt.Printf("  query error:      %.4f\n", r.QueryError)
		fmt.Printf("  hotspot NDCG:     %.4f (larger better)\n", r.HotspotNDCG)
		fmt.Printf("  transition error: %.4f\n", r.TransitionError)
		fmt.Printf("  pattern F1:       %.4f (larger better)\n", r.PatternF1)
		fmt.Printf("  kendall tau:      %.4f (larger better)\n", r.KendallTau)
		fmt.Printf("  trip error:       %.4f\n", r.TripError)
		fmt.Printf("  length error:     %.4f\n", r.LengthError)
	}

	if *out != "" {
		if err := writeCells(*out, syn); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote synthetic streams to %s\n", *out)
	}
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

// validateFlags rejects unusable flag combinations up front with errors
// that name the flag and the accepted range.
func validateFlags(k int, eps float64, w, shards int, scale, boundMin, boundMax float64, spatialKind string, maxLeaves int, fence string) error {
	if k < 1 {
		return fmt.Errorf("-k must be ≥ 1, got %d", k)
	}
	if !(eps > 0) {
		return fmt.Errorf("-eps must be > 0, got %v", eps)
	}
	if w < 1 {
		return fmt.Errorf("-w must be ≥ 1, got %d", w)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be ≥ 1, got %d", shards)
	}
	if !(scale > 0) {
		return fmt.Errorf("-scale must be > 0, got %v", scale)
	}
	if boundMax <= boundMin {
		return fmt.Errorf("-boundsMax (%v) must exceed -boundsMin (%v)", boundMax, boundMin)
	}
	switch spatialKind {
	case "uniform":
	case "quadtree":
		if maxLeaves < 1 {
			return fmt.Errorf("-max-leaves must be ≥ 1, got %d", maxLeaves)
		}
	case "geofence":
		if fence == "" {
			return fmt.Errorf("-spatial geofence needs -fence, a GeoJSON file whose polygons become the cells")
		}
	default:
		return fmt.Errorf("unknown -spatial %q (want \"uniform\", \"quadtree\" or \"geofence\")", spatialKind)
	}
	return nil
}

// loadFence reads and validates the -fence file; parse and validation errors
// both name the offending polygon index.
func loadFence(path string) (*retrasyn.Geofence, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open -fence: %w", err)
	}
	defer f.Close()
	polys, err := retrasyn.ParseFence(f)
	if err != nil {
		return nil, fmt.Errorf("-fence %s: %w", path, err)
	}
	gf, err := retrasyn.NewGeofence(polys)
	if err != nil {
		return nil, fmt.Errorf("-fence %s: %w", path, err)
	}
	return gf, nil
}

// loadSketch reads the quadtree density sketch from the -density CSV. When
// no file is given it falls back to the run's own input — fine for the
// simulated datasets this command usually drives, but on real private data
// the tree layout would leak hotspot locations outside the ε accounting, so
// the fallback announces itself loudly.
func loadSketch(density string, input *retrasyn.RawDataset) ([]retrasyn.Point, error) {
	if density == "" {
		fmt.Fprintln(os.Stderr, "retrasyn: WARNING: quadtree density sketch derived from the input stream itself;"+
			" on private data pass -density with a public/historical CSV, or the tree layout leaks hotspots outside the ε-LDP guarantee")
		return retrasyn.DensitySketch(input), nil
	}
	f, err := os.Open(density)
	if err != nil {
		return nil, fmt.Errorf("open -density: %w", err)
	}
	defer f.Close()
	raw, err := trajectory.ReadRaw(f)
	if err != nil {
		return nil, fmt.Errorf("parse -density %s: %w", density, err)
	}
	pts := retrasyn.DensitySketch(raw)
	if len(pts) == 0 {
		return nil, fmt.Errorf("-density %s holds no points; the quadtree needs a non-empty sketch", density)
	}
	return pts, nil
}

func loadData(in, dataset string, scale float64, seed uint64, boundMin, boundMax float64) (*retrasyn.RawDataset, retrasyn.Bounds, error) {
	if in == "" {
		return retrasyn.StandardDataset(dataset, scale, seed)
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
	b := retrasyn.Bounds{MinX: boundMin, MinY: boundMin, MaxX: boundMax, MaxY: boundMax}
	return raw, b, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "retrasyn:", err)
	os.Exit(1)
}
