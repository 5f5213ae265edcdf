package core

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"retrasyn/internal/allocation"
	"retrasyn/internal/geofence"
	"retrasyn/internal/grid"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
)

// Flags is the command-line form of a Config, declared once for every
// command that builds an engine. RegisterFlags binds the model and
// layout-control flags straight into the embedded Config; the other fields
// describe the boot discretization. A command binds its own -lambda and
// -monitor-window to Config.Lambda and Config.MonitorWindow when it has them.
type Flags struct {
	Config
	K         int
	BoundsMin float64
	BoundsMax float64
	// DivisionName is -division; Validate resolves it into Config.Division.
	DivisionName string
	Spatial      string
	MaxLeaves    int
	Density      string
	Fence        string
}

// RegisterFlags declares the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.K, "k", 6, "grid granularity K of the uniform grid")
	fs.Float64Var(&f.BoundsMin, "boundsMin", 0, "spatial lower bound (both axes)")
	fs.Float64Var(&f.BoundsMax, "boundsMax", 30, "spatial upper bound (both axes)")
	fs.Float64Var(&f.Epsilon, "eps", 1.0, "privacy budget ε")
	fs.IntVar(&f.W, "w", 20, "window size w")
	fs.StringVar(&f.DivisionName, "division", "population", `"budget" or "population"`)
	fs.StringVar(&f.Strategy, "strategy", StrategyAdaptive, `allocation strategy: "adaptive", "uniform" or "sample"`)
	fs.StringVar(&f.Spatial, "spatial", "uniform", `spatial discretization: "uniform" (K×K grid), "quadtree" (density-adaptive, grown from -density) or "geofence" (polygonal; requires -fence)`)
	fs.IntVar(&f.MaxLeaves, "max-leaves", 64, "quadtree leaf budget (-spatial quadtree)")
	fs.StringVar(&f.Density, "density", "", "public/historical raw-trajectory CSV that seeds the quadtree density sketch (-spatial quadtree)")
	fs.StringVar(&f.Fence, "fence", "", "GeoJSON fence file whose polygons become the cells (-spatial geofence)")
	fs.Uint64Var(&f.Seed, "seed", 2024, "run seed")
	fs.IntVar(&f.RediscretizeEvery, "rediscretize-every", 0, "rebuild the spatial layout from the released stream every N windows and migrate when it drifted (0 = frozen layout)")
	fs.Float64Var(&f.RelayoutThreshold, "relayout-threshold", 0, "minimum layout distance in [0,1) for a rebuilt layout to replace the current one (0 = default 0.1)")
	fs.StringVar((*string)(&f.TriggerPolicy), "trigger", "", `relayout trigger policy: "geometric" (default), "degradation-or" or "degradation-and" (combine the distance threshold with utility-monitor alarms)`)
	return f
}

// flagNames maps the Config fields that flags set to the flag's name.
var flagNames = map[string]string{
	"Epsilon":           "-eps",
	"W":                 "-w",
	"Strategy":          "-strategy",
	"Lambda":            "-lambda",
	"RediscretizeEvery": "-rediscretize-every",
	"RelayoutThreshold": "-relayout-threshold",
	"MonitorWindow":     "-monitor-window",
	"TriggerPolicy":     "-trigger",
}

// FlagError renames the Config field a rejection names to the flag that set
// it, so a command's error says what the user typed.
func FlagError(err error) error {
	var fe *FieldError
	if errors.As(err, &fe) {
		if name, ok := flagNames[fe.Field]; ok {
			return fmt.Errorf("%s %s", name, fe.Problem)
		}
	}
	return err
}

// Validate resolves -division and checks the parsed flags before any data is
// read: the Config settings through Config's own checks, then the
// discretization flags. Each rejection names its flag.
func (f *Flags) Validate() error {
	switch f.DivisionName {
	case "budget":
		f.Division = allocation.Budget
	case "population":
		f.Division = allocation.Population
	default:
		return fmt.Errorf("unknown -division %q (want \"budget\" or \"population\")", f.DivisionName)
	}
	if err := f.validateSettings(); err != nil {
		return FlagError(err)
	}
	if f.BoundsMax <= f.BoundsMin {
		return fmt.Errorf("-boundsMax (%v) must exceed -boundsMin (%v)", f.BoundsMax, f.BoundsMin)
	}
	switch f.Spatial {
	case "uniform":
	case "quadtree":
		if f.MaxLeaves < 1 {
			return fmt.Errorf("-max-leaves must be ≥ 1, got %d", f.MaxLeaves)
		}
	case "geofence":
		if f.Fence == "" {
			return fmt.Errorf("-spatial geofence needs -fence, a GeoJSON file whose polygons become the cells")
		}
	default:
		return fmt.Errorf("unknown -spatial %q (want \"uniform\", \"quadtree\" or \"geofence\")", f.Spatial)
	}
	return nil
}

// Bounds returns the -boundsMin/-boundsMax square.
func (f *Flags) Bounds() spatial.Bounds {
	return spatial.Bounds{MinX: f.BoundsMin, MinY: f.BoundsMin, MaxX: f.BoundsMax, MaxY: f.BoundsMax}
}

// Grid builds the -k uniform grid over b.
func (f *Flags) Grid(b spatial.Bounds) (*grid.System, error) {
	if f.K < 1 {
		return nil, fmt.Errorf("-k must be ≥ 1, got %d", f.K)
	}
	return grid.New(f.K, b)
}

// Space builds the boot discretization the flags describe over b. fallback
// supplies the quadtree's density sketch when -density is not given; when it
// is nil, -spatial quadtree requires -density.
func (f *Flags) Space(b spatial.Bounds, fallback func() []spatial.Point) (spatial.Discretizer, error) {
	switch f.Spatial {
	case "quadtree":
		var pts []spatial.Point
		switch {
		case f.Density != "":
			var err error
			if pts, err = loadSketch(f.Density); err != nil {
				return nil, err
			}
		case fallback != nil:
			pts = fallback()
		default:
			return nil, fmt.Errorf("-spatial quadtree needs -density, a public/historical raw-trajectory CSV that seeds the density sketch")
		}
		return spatial.NewQuadtree(b, pts, spatial.QuadtreeOptions{MaxLeaves: f.MaxLeaves})
	case "geofence":
		file, err := os.Open(f.Fence)
		if err != nil {
			return nil, fmt.Errorf("open -fence: %w", err)
		}
		defer file.Close()
		polys, err := geofence.ParseFence(file)
		if err != nil {
			return nil, fmt.Errorf("-fence %s: %w", f.Fence, err)
		}
		fence, err := geofence.NewFence(polys)
		if err != nil {
			return nil, fmt.Errorf("-fence %s: %w", f.Fence, err)
		}
		return fence, nil
	}
	return f.Grid(b)
}

// loadSketch reads the -density CSV as a quadtree density sketch.
func loadSketch(path string) ([]spatial.Point, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open -density: %w", err)
	}
	defer file.Close()
	raw, err := trajectory.ReadRaw(file)
	if err != nil {
		return nil, fmt.Errorf("parse -density %s: %w", path, err)
	}
	pts := raw.Positions()
	if len(pts) == 0 {
		return nil, fmt.Errorf("-density %s holds no points; the quadtree needs a non-empty sketch", path)
	}
	return pts, nil
}
