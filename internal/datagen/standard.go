package datagen

import (
	"retrasyn/internal/grid"
	"retrasyn/internal/trajectory"
)

// Standard datasets: scaled-down substitutes for the paper's Table I
// datasets, with a scale knob multiplying the user population. At scale 1
// they run the full evaluation on a laptop in minutes; pushing the scale up
// approaches the paper's raw sizes (the utility metrics are ratios and
// divergences, stable under population scaling).

// Spec describes a standard dataset: how to generate it and the grid bounds
// experiments should discretize it with.
type Spec struct {
	Name   string
	Bounds grid.Bounds
	// Generate builds the raw dataset at the given population scale.
	Generate func(scale float64, seed uint64) (*trajectory.RawDataset, error)
}

// TDriveSpec is the T-Drive substitute: short taxi sessions in a 30×30
// bounding box with rush-hour flow reversal over a 150-timestamp timeline.
func TDriveSpec() Spec {
	b := grid.Bounds{MinX: 0, MinY: 0, MaxX: 30, MaxY: 30}
	return Spec{
		Name:   "TDriveSim",
		Bounds: b,
		Generate: func(scale float64, seed uint64) (*trajectory.RawDataset, error) {
			// 260 arrivals per timestamp at scale 1 matches the paper's
			// T-Drive stream inflow (232,640 streams / 886 timestamps).
			d, err := TDriveLike(TDriveConfig{
				T:             150,
				Hotspots:      8,
				InitialUsers:  scaled(1200, scale),
				ArrivalsPerTs: 260 * scale,
				MeanLength:    13.6,
				MinX:          b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY,
				Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			d.Name = "TDriveSim"
			return d, nil
		},
	}
}

// OldenburgSpec is the Oldenburg substitute: network-constrained movers on
// a 28×28-intersection road map, long sessions (~60 points), steady flow.
func OldenburgSpec() Spec {
	b := grid.Bounds{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}
	return Spec{
		Name:   "OldenburgSim",
		Bounds: b,
		Generate: func(scale float64, seed uint64) (*trajectory.RawDataset, error) {
			net, err := GenerateRoadNetwork(28, b.MinX, b.MinY, b.MaxX, b.MaxY, seed^0x01de4b)
			if err != nil {
				return nil, err
			}
			d, err := BrinkhoffLike(net, BrinkhoffConfig{
				T:             120,
				InitialUsers:  scaled(1500, scale),
				NewUsersPerTs: scaled(130, scale),
				QuitProb:      1.0 / 60,
				Jitter:        0.1,
				Seed:          seed,
			})
			if err != nil {
				return nil, err
			}
			d.Name = "OldenburgSim"
			return d, nil
		},
	}
}

// SanJoaquinSpec is the SanJoaquin substitute: a larger road network and a
// heavier arrival stream over a longer timeline.
func SanJoaquinSpec() Spec {
	b := grid.Bounds{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}
	return Spec{
		Name:   "SanJoaquinSim",
		Bounds: b,
		Generate: func(scale float64, seed uint64) (*trajectory.RawDataset, error) {
			net, err := GenerateRoadNetwork(36, b.MinX, b.MinY, b.MaxX, b.MaxY, seed^0x5a4f0a)
			if err != nil {
				return nil, err
			}
			d, err := BrinkhoffLike(net, BrinkhoffConfig{
				T:             150,
				InitialUsers:  scaled(2000, scale),
				NewUsersPerTs: scaled(170, scale),
				QuitProb:      1.0 / 55,
				Jitter:        0.1,
				Seed:          seed,
			})
			if err != nil {
				return nil, err
			}
			d.Name = "SanJoaquinSim"
			return d, nil
		},
	}
}

// AllSpecs returns the three standard dataset specs in Table I order, plus
// the drifting-hotspot workload the re-discretization benchmark uses and the
// corridor/district workload the geofence benchmark uses.
func AllSpecs() []Spec {
	return []Spec{TDriveSpec(), OldenburgSpec(), SanJoaquinSpec(), DriftingSpec(), CorridorSpec()}
}

// SpecByName resolves a spec by its dataset name (case-sensitive) or the
// short aliases "tdrive", "oldenburg", "sanjoaquin", "drifting", "corridor".
func SpecByName(name string) (Spec, bool) {
	switch name {
	case "TDriveSim", "tdrive":
		return TDriveSpec(), true
	case "OldenburgSim", "oldenburg":
		return OldenburgSpec(), true
	case "SanJoaquinSim", "sanjoaquin":
		return SanJoaquinSpec(), true
	case "DriftingSim", "drifting":
		return DriftingSpec(), true
	case "CorridorSim", "corridor":
		return CorridorSpec(), true
	default:
		return Spec{}, false
	}
}

func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 && n > 0 && scale > 0 {
		return 1
	}
	return v
}
