package retrasyn

import (
	"retrasyn/internal/datagen"
	"retrasyn/internal/trajectory"
)

// Dataset generation — the substitutes for the paper's evaluation data,
// exposed for downstream benchmarking and the runnable examples.

// TDriveConfig parameterizes the hotspot-gravity taxi simulator.
type TDriveConfig = datagen.TDriveConfig

// GenerateTDriveLike builds a taxi-like raw dataset with rush-hour flow
// reversal (the T-Drive substitute).
func GenerateTDriveLike(cfg TDriveConfig) (*RawDataset, error) {
	return datagen.TDriveLike(cfg)
}

// RoadNetwork is a spatially embedded road graph.
type RoadNetwork = datagen.RoadNetwork

// BrinkhoffConfig parameterizes the network-constrained moving-object
// generator.
type BrinkhoffConfig = datagen.BrinkhoffConfig

// GenerateRoadNetwork builds a connected jittered-lattice road network.
func GenerateRoadNetwork(side int, b Bounds, seed uint64) (*RoadNetwork, error) {
	return datagen.GenerateRoadNetwork(side, b.MinX, b.MinY, b.MaxX, b.MaxY, seed)
}

// GenerateBrinkhoffLike builds a raw dataset of movers constrained to the
// road network (the Oldenburg/SanJoaquin substitute).
func GenerateBrinkhoffLike(net *RoadNetwork, cfg BrinkhoffConfig) (*RawDataset, error) {
	return datagen.BrinkhoffLike(net, cfg)
}

// DriftConfig parameterizes the drifting-hotspot workload generator.
type DriftConfig = datagen.DriftConfig

// CorridorConfig parameterizes the corridor/district workload generator.
type CorridorConfig = datagen.CorridorConfig

// GenerateCorridor builds a raw dataset of sessions travelling a cross of
// road corridors between four districts — the workload whose reachable space
// is a small fraction of its bounding box, motivating the geofence backend.
func GenerateCorridor(cfg CorridorConfig) (*RawDataset, error) {
	return datagen.Corridor(cfg)
}

// CorridorFence returns the fence polygons matching the corridor workload
// over the given bounds (districts, arm segments and center), ready for
// NewGeofence.
func CorridorFence(b Bounds) []FencePolygon {
	return datagen.CorridorFence(b)
}

// GenerateDriftingHotspot builds a raw dataset whose dominant hotspot
// translates across the space over time — the workload that defeats
// boot-frozen spatial layouts and motivates online re-discretization.
func GenerateDriftingHotspot(cfg DriftConfig) (*RawDataset, error) {
	return datagen.DriftingHotspot(cfg)
}

// StandardDataset generates one of the named evaluation datasets
// ("tdrive", "oldenburg", "sanjoaquin", "drifting", "corridor") at the given
// population scale, returning the raw dataset and the bounds to grid it
// with.
func StandardDataset(name string, scale float64, seed uint64) (*RawDataset, Bounds, error) {
	spec, ok := datagen.SpecByName(name)
	if !ok {
		return nil, Bounds{}, errUnknownDataset(name)
	}
	raw, err := spec.Generate(scale, seed)
	if err != nil {
		return nil, Bounds{}, err
	}
	return raw, spec.Bounds, nil
}

type errUnknownDataset string

func (e errUnknownDataset) Error() string {
	return "retrasyn: unknown dataset " + string(e) + ` (want "tdrive", "oldenburg", "sanjoaquin", "drifting", or "corridor")`
}

// NewStreamEvents converts a discretized dataset into its per-timestamp
// transition-state event lists — what user devices would report — plus the
// per-timestamp active-user counts. Useful for driving ProcessTimestamp
// manually, as the trafficmonitor example does.
func NewStreamEvents(d *Dataset) (events [][]Event, active []int) {
	s := trajectory.NewStream(d)
	return s.Events, s.Active
}
