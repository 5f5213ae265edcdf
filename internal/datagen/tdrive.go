package datagen

import (
	"fmt"
	"math"

	"retrasyn/internal/ldp"
	"retrasyn/internal/trajectory"
)

// TDriveConfig parameterizes the hotspot-gravity taxi simulator that stands
// in for the proprietary T-Drive traces: short sessions,
// skewed spatial density around hotspots, and time-of-day flow reversal —
// residential→business in the morning rush, the reverse in the evening —
// which produces the drifting transition distributions the DMU mechanism is
// designed to track.
type TDriveConfig struct {
	// T is the timeline length (the paper uses 886 ten-minute slots).
	T int
	// DayLength is the number of timestamps per simulated day; rush hours
	// peak at 1/4 and 3/4 of each day. Defaults to T/2 (two days) when 0.
	DayLength int
	// Hotspots is the number of attraction centres (half residential, half
	// business). Default 8.
	Hotspots int
	// InitialUsers enter at t=0.
	InitialUsers int
	// ArrivalsPerTs is the mean number of new sessions per timestamp before
	// rush-hour modulation.
	ArrivalsPerTs float64
	// MeanLength is the target mean session length in points (paper: 13.61).
	MeanLength float64
	// Speed is the mean travel distance per timestamp in coordinate units.
	Speed float64
	// MinX..MaxY bound the city (paper: Beijing within the 5th ring).
	MinX, MinY, MaxX, MaxY float64
	// Seed drives all randomness.
	Seed uint64
}

func (c *TDriveConfig) defaults() error {
	if c.T < 1 {
		return fmt.Errorf("datagen: T must be ≥ 1, got %d", c.T)
	}
	if c.DayLength <= 0 {
		c.DayLength = max(2, c.T/2)
	}
	if c.Hotspots <= 0 {
		c.Hotspots = 8
	}
	if c.MeanLength <= 1 {
		c.MeanLength = 13.6
	}
	if !(c.MaxX > c.MinX) || !(c.MaxY > c.MinY) {
		return fmt.Errorf("datagen: invalid bounds")
	}
	if c.Speed <= 0 {
		c.Speed = (c.MaxX - c.MinX) / 18
	}
	if c.ArrivalsPerTs < 0 {
		return fmt.Errorf("datagen: negative arrival rate")
	}
	return nil
}

type hotspot struct {
	x, y        float64
	residential bool
	weight      float64
}

// TDriveLike generates the taxi-like raw dataset.
func TDriveLike(cfg TDriveConfig) (*trajectory.RawDataset, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := ldp.NewRand(cfg.Seed, cfg.Seed^0x1f2e3d4c)
	spots := make([]hotspot, cfg.Hotspots)
	for i := range spots {
		spots[i] = hotspot{
			x:           cfg.MinX + rng.Float64()*(cfg.MaxX-cfg.MinX),
			y:           cfg.MinY + rng.Float64()*(cfg.MaxY-cfg.MinY),
			residential: i%2 == 0,
			weight:      0.5 + rng.Float64(),
		}
	}
	d := &trajectory.RawDataset{Name: "tdrive", T: cfg.T}
	scatter := (cfg.MaxX - cfg.MinX) / 12

	for i := 0; i < cfg.InitialUsers; i++ {
		spawnSession(d, &cfg, spots, rng, 0, scatter)
	}
	for t := 1; t < cfg.T; t++ {
		rate := cfg.ArrivalsPerTs * rushFactor(t, cfg.DayLength)
		n := poisson(rng, rate)
		for i := 0; i < n; i++ {
			spawnSession(d, &cfg, spots, rng, t, scatter)
		}
	}
	return d, nil
}

// rushFactor modulates arrivals over the day: quiet nights, morning and
// evening peaks.
func rushFactor(t, dayLen int) float64 {
	phase := float64(t%dayLen) / float64(dayLen) // 0..1 through the day
	morning := math.Exp(-squared(phase-0.25) / 0.008)
	evening := math.Exp(-squared(phase-0.75) / 0.008)
	return 0.4 + 1.2*(morning+evening)
}

func squared(x float64) float64 { return x * x }

// spawnSession emits one taxi session starting at timestamp start.
func spawnSession(d *trajectory.RawDataset, cfg *TDriveConfig, spots []hotspot, rng ldp.Rand, start int, scatter float64) {
	phase := float64(start%cfg.DayLength) / float64(cfg.DayLength)
	// Origin class bias: residential in the morning, business in the evening.
	var originResidential bool
	switch {
	case phase < 0.5:
		originResidential = rng.Float64() < 0.75
	default:
		originResidential = rng.Float64() < 0.25
	}
	ox, oy := samplePlace(rng, spots, originResidential, scatter, cfg)
	dx, dy := samplePlace(rng, spots, !originResidential, scatter, cfg)

	tr := trajectory.RawTrajectory{Start: start}
	x, y := ox, oy
	quitP := 1 / cfg.MeanLength
	for t := start; t < cfg.T; t++ {
		tr.Points = append(tr.Points, trajectory.RawPoint{X: x, Y: y})
		if len(tr.Points) > 1 && ldp.Bernoulli(rng, quitP) {
			break
		}
		// Move toward the destination with jitter; on arrival pick the next
		// fare (a new destination of either class).
		distX, distY := dx-x, dy-y
		dist := math.Hypot(distX, distY)
		step := cfg.Speed * (0.5 + rng.Float64())
		if dist <= step {
			x, y = dx, dy
			dx, dy = samplePlace(rng, spots, rng.Float64() < 0.5, scatter, cfg)
		} else {
			x += distX / dist * step * (0.8 + 0.4*rng.Float64())
			y += distY / dist * step * (0.8 + 0.4*rng.Float64())
		}
		x = clamp(x, cfg.MinX, cfg.MaxX)
		y = clamp(y, cfg.MinY, cfg.MaxY)
	}
	if len(tr.Points) > 0 {
		d.Trajs = append(d.Trajs, tr)
	}
}

// samplePlace draws a location near a weighted hotspot of the requested
// class with Gaussian scatter.
func samplePlace(rng ldp.Rand, spots []hotspot, residential bool, scatter float64, cfg *TDriveConfig) (float64, float64) {
	total := 0.0
	for _, s := range spots {
		if s.residential == residential {
			total += s.weight
		}
	}
	if total == 0 { // degenerate config: single-class hotspot set
		residential = !residential
		for _, s := range spots {
			if s.residential == residential {
				total += s.weight
			}
		}
	}
	u := rng.Float64() * total
	var pick hotspot
	for _, s := range spots {
		if s.residential != residential {
			continue
		}
		u -= s.weight
		pick = s
		if u <= 0 {
			break
		}
	}
	x := clamp(pick.x+rng.NormFloat64()*scatter, cfg.MinX, cfg.MaxX)
	y := clamp(pick.y+rng.NormFloat64()*scatter, cfg.MinY, cfg.MaxY)
	return x, y
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// poisson samples a Poisson variate by Knuth's method for small rates and a
// normal approximation for large ones.
func poisson(rng ldp.Rand, rate float64) int {
	if rate <= 0 {
		return 0
	}
	if rate > 64 {
		k := int(math.Round(rate + rng.NormFloat64()*math.Sqrt(rate)))
		if k < 0 {
			return 0
		}
		return k
	}
	l := math.Exp(-rate)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
