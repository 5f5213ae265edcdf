// Command datagen generates the standard evaluation datasets (the
// substitutes for T-Drive, Oldenburg and SanJoaquin documented in
// internal/datagen) and writes them as raw-trajectory CSV.
//
// Usage:
//
//	datagen -dataset tdrive -scale 1.0 -seed 2024 -out tdrive.csv
//	datagen -dataset oldenburg -stats
//	datagen -dataset corridor -out corridor.csv -fence-out corridor.geojson
//	datagen -dataset sanjoaquin -scale 4 -k 6 -transitions-out sj_transition_id.xz
package main

import (
	"flag"
	"fmt"
	"os"

	"retrasyn"
	"retrasyn/internal/dataset"
	"retrasyn/internal/geofence"
	"retrasyn/internal/trajectory"
)

func main() {
	var (
		dsName   = flag.String("dataset", "tdrive", `dataset: "tdrive", "oldenburg", "sanjoaquin", "drifting" (drifting-hotspot workload for re-discretization benchmarks), or "corridor" (corridor/district workload for geofence benchmarks)`)
		scale    = flag.Float64("scale", 1.0, "population scale factor")
		seed     = flag.Uint64("seed", 2024, "generation seed")
		out      = flag.String("out", "", "output CSV path (default stdout)")
		fenceOut = flag.String("fence-out", "", `write the corridor workload's matching GeoJSON fence here ("corridor" only; feed it to retrasyn/curator -spatial geofence -fence)`)
		k        = flag.Int("k", 6, "grid granularity for -stats and -transitions-out")
		stats    = flag.Bool("stats", false, "print discretized dataset statistics instead of CSV")
		transOut = flag.String("transitions-out", "", "also write the discretized stream in the RetraSyn transition-id format here (xz-compressed when the path ends in .xz; replay it with loadgen); when -out is empty this suppresses the CSV dump")
	)
	flag.Parse()

	raw, bounds, err := retrasyn.StandardDataset(*dsName, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	if *fenceOut != "" {
		if *dsName != "corridor" && *dsName != "CorridorSim" {
			fatal(fmt.Errorf("-fence-out is only meaningful with -dataset corridor (got %q)", *dsName))
		}
		f, err := os.Create(*fenceOut)
		if err != nil {
			fatal(err)
		}
		if err := geofence.WriteFence(f, retrasyn.CorridorFence(bounds)); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote the corridor fence to %s\n", *fenceOut)
	}
	if *transOut != "" {
		g, err := retrasyn.NewGrid(*k, bounds)
		if err != nil {
			fatal(err)
		}
		cells := retrasyn.Discretize(raw, g)
		wc, err := dataset.Create(*transOut)
		if err != nil {
			fatal(err)
		}
		if err := dataset.WriteDataset(wc, cells, g); err != nil {
			wc.Close()
			fatal(err)
		}
		if err := wc.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d timestamps (%d streams, %d points) to %s\n",
			cells.T, len(cells.Trajs), cells.NumPoints(), *transOut)
		if *out == "" && !*stats {
			return
		}
	}
	if *stats {
		g, err := retrasyn.NewGrid(*k, bounds)
		if err != nil {
			fatal(err)
		}
		cells := retrasyn.Discretize(raw, g)
		s := cells.Stats()
		fmt.Printf("dataset:      %s (scale %.2f, seed %d)\n", raw.Name, *scale, *seed)
		fmt.Printf("bounds:       [%g,%g]×[%g,%g], K=%d\n", bounds.MinX, bounds.MaxX, bounds.MinY, bounds.MaxY, *k)
		fmt.Printf("streams:      %d\n", s.Size)
		fmt.Printf("points:       %d\n", s.NumPoints)
		fmt.Printf("avg length:   %.2f\n", s.AvgLength)
		fmt.Printf("timestamps:   %d\n", s.Timestamps)
		return
	}

	if *out == "" {
		if err := trajectory.WriteRaw(os.Stdout, raw); err != nil {
			fatal(err)
		}
		return
	}
	if err := writeRaw(*out, raw); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d streams (%d points) to %s\n", len(raw.Trajs), raw.NumPoints(), *out)
}

// writeRaw writes d to path as raw-trajectory CSV. A file that fails to
// close may not be on disk, so the Close error is returned too; every
// error names the path.
func writeRaw(path string, d *retrasyn.RawDataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trajectory.WriteRaw(f, d); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
