package main

import (
	"time"

	"retrasyn"
	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
)

// layers holds per-layer metric values by name.
type layers map[string]float64

func (l layers) since(name string, start time.Time) { l[name] = seconds(time.Since(start)) }

// system is a booted system under test after a replay: an HTTP curator or an
// in-process framework.
type system interface {
	// snapshot writes a checkpoint the way an operator would take one and
	// returns its size in bytes.
	snapshot() (int64, error)
	// release returns the released synthetic database. A non-nil lay also
	// receives the layer's own fetch metrics.
	release(lay layers) (*retrasyn.Dataset, error)
	close() error
}

// replay is what one pass of a whole stream through a freshly booted system
// measured.
type replay struct {
	sys    system
	pass   int // position in the run; the tracer stamps it on the pass's spans
	traced bool
	wall   time.Duration
	cpu    time.Duration
	rounds []time.Duration // round start → Finalize/ProcessTimestamp return
	events int64           // input user-timestamp events
	// reports collected, and released points owed (Σ_t active users at t).
	reports  int64
	released int64
	// peakRSS is VmHWM right after the replay, the mark reset before it.
	peakRSS int64
	// utility is the density, transition and query error of this pass's
	// release, evaluated after the replay (untimed), in evalS seconds.
	utility [3]float64
	evalS   float64
	// The zero-loss ledger: operations attempted and those that failed or
	// that the system's own counters do not account for.
	attempted, failed int64
	// gate lists correctness gates this pass broke.
	gate []string
	// lay are the layer values that need no spans (counters, stage timers).
	lay layers
	// finalizeStage[t] is what the curator's stage timers charged inside
	// Finalize(t); traced wire passes only.
	finalizeStage []time.Duration
}

// prepared is a workload's generated input, ready to replay any number of
// times.
type prepared interface {
	// replay boots a fresh system, runs the whole stream through it and
	// returns what it measured, with the system still live. Pass number pass
	// gets its own perturbation and engine seeds (passSeed), so the passes of
	// a run are independent draws of the release. tr is nil in untraced
	// passes.
	replay(pass int, tr *tracer) (*replay, error)
	// reference returns the original database, a release of sys and the
	// discretization to compare the two on.
	reference(syn *retrasyn.Dataset, sys system) (orig, release *retrasyn.Dataset, space retrasyn.Discretizer)
	// oue returns the domain size and budget of a typical collection round,
	// for the fold-in-isolation measurement.
	oue() (domain int, eps float64)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// prepare makes the inputs from the seed and boots the system once;
	// lay receives the set-up spans. toy shrinks the inputs for the tests.
	prepare func(seed uint64, tmpDir string, toy bool, lay layers) (prepared, error)
	// utility is the released-vs-original density, transition and query
	// error at the default seed (mean over a run's passes), which reruns must
	// reproduce within the metric's bound; other seeds are held to twice it.
	utility [3]float64
}

const defaultSeed = 2024

// citySeed generates every workload's population. A run's --seed then draws
// its users from that population (sample) and drives perturbation and the
// engine. Were the generators seeded from --seed directly, the T-Drive
// hotspots would move with it and the utility errors would differ by a
// quarter from seed to seed, which no regression bound survives; drawn from
// one city, ten seeds agree within a few percent.
const citySeed = 20240601

// keepShare is the share of the generated streams a run keeps.
const keepShare = 0.8

// sample draws a run's population: every generated stream stays with
// probability keepShare, by a coin the seed drives.
func sample(raw *retrasyn.RawDataset, seed uint64) *retrasyn.RawDataset {
	rng := ldp.NewRand(seed, seed^0x2545f4914f6cdd1d)
	out := &retrasyn.RawDataset{Name: raw.Name, T: raw.T, Trajs: make([]trajectory.RawTrajectory, 0, int(keepShare*float64(len(raw.Trajs)))+1)}
	for _, tr := range raw.Trajs {
		if rng.Float64() < keepShare {
			out.Trajs = append(out.Trajs, tr)
		}
	}
	return out
}

// The protocol constants every workload shares: the paper's T-Drive setup.
const (
	gridK   = 6
	epsilon = 1.0
	lambda  = 13.6
)

// Sizes are cut from the ISSUE's sizing (7–12 s per pass) to 1.5–3 s per
// pass so that a 10 s run holds several passes and the driver's 114 runs fit
// its time cap; the load shape of each workload is unchanged.
var workloads = []workload{
	{
		name:    "wire_w20",
		why:     "TDriveSim x3 over HTTP, population division w=20: many presence/assignment entries, few reports, so roster, Plan and Finalize dominate and perturb/fold idle",
		prepare: wireParams{scale: 3.75, window: 20}.prepare,
		utility: [3]float64{0.119426, 0.413072, 0.173198},
	},
	{
		name:    "wire_w2",
		why:     "TDriveSim x1.5 over HTTP, w=2: half the pool reports each round, so client perturb+pack, report decode+fold and the sampler in Plan dominate",
		prepare: wireParams{scale: 1.875, window: 2}.prepare,
		utility: [3]float64{0.11904, 0.387338, 0.176491},
	},
	{
		name: "engine_soak",
		why:  "In-process aggregate-oracle run of a long T-Drive-like stream, w=20, monitor on: synthesis, round glue, release-history memory and checkpoint size dominate; no wire, no per-user perturbation",
		prepare: engineParams{
			generate: func(toy bool) (*retrasyn.RawDataset, retrasyn.Bounds, error) {
				cfg := retrasyn.TDriveConfig{T: 720, InitialUsers: 6000, ArrivalsPerTs: 470, MeanLength: lambda, MaxX: 30, MaxY: 30, Seed: citySeed}
				if toy {
					cfg.T, cfg.InitialUsers, cfg.ArrivalsPerTs = 60, 300, 20
				}
				raw, err := retrasyn.GenerateTDriveLike(cfg)
				return raw, retrasyn.Bounds{MaxX: cfg.MaxX, MaxY: cfg.MaxY}, err
			},
			options: retrasyn.Options{
				Epsilon: epsilon, Window: 20, Division: retrasyn.PopulationDivision,
				Lambda: lambda, MonitorWindow: 20,
			},
		}.prepare,
		utility: [3]float64{0.126933, 0.425033, 0.0452646},
	},
	{
		name: "engine_faithful",
		why:  "In-process TDriveSim x3 with per-user perturbation, budget division w=10, adaptive strategy, 2 shards: ldp perturb + packed fold do most of the work; remote and history almost none",
		prepare: engineParams{
			generate: func(toy bool) (*retrasyn.RawDataset, retrasyn.Bounds, error) {
				scale := 3.75
				if toy {
					scale = 0.04
				}
				return retrasyn.StandardDataset("tdrive", scale, citySeed)
			},
			options: retrasyn.Options{
				// w=10, not 20: at 20 half the rounds collect and half do not,
				// so the median round sits on the edge between a 2 ms and a
				// 14 ms mode and moves by 16% from run to run.
				Epsilon: epsilon, Window: 10, Division: retrasyn.BudgetDivision,
				Strategy: retrasyn.StrategyAdaptive, Lambda: lambda,
				FaithfulClients: true, Shards: 2,
			},
		}.prepare,
		utility: [3]float64{0.11902, 0.375351, 0.195554},
	},
	{
		name: "engine_adaptive",
		why:  "Drifting hotspot on a boot quadtree with degradation-triggered relayout: the only workload where relayout, monitor, quadtree growth and re-discretization of the raw stream run",
		prepare: engineParams{
			generate: func(toy bool) (*retrasyn.RawDataset, retrasyn.Bounds, error) {
				cfg := retrasyn.DriftConfig{T: 120, InitialUsers: 25000, ArrivalsPerTs: 1875, MeanLength: 10, HotspotShare: 0.85, MaxX: 32, MaxY: 32, Seed: citySeed}
				if toy {
					cfg.T, cfg.InitialUsers, cfg.ArrivalsPerTs = 60, 2000, 150
				}
				raw, err := retrasyn.GenerateDriftingHotspot(cfg)
				return raw, retrasyn.Bounds{MaxX: cfg.MaxX, MaxY: cfg.MaxY}, err
			},
			options: retrasyn.Options{
				Epsilon: 2, Window: 5, Division: retrasyn.BudgetDivision,
				Strategy: retrasyn.StrategySample, Lambda: 10,
				RediscretizeEvery: 2, RelayoutThreshold: 0.05, MonitorWindow: 5,
				TriggerPolicy: retrasyn.TriggerDegradationOr,
			},
			// The boot layout grows from the first ten timestamps.
			bootQuadtree: &retrasyn.QuadtreeOptions{MaxLeaves: 32, MaxDepth: 5},
		}.prepare,
		utility: [3]float64{0.346351, 0.42546, 0.302663},
	},
}

// passSeed is the perturbation and engine seed of a run's pass.
func passSeed(seed uint64, pass int) uint64 { return seed + uint64(pass)*0x9e3779b97f4a7c15 }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
