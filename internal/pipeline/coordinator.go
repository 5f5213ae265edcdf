package pipeline

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// Runner is one independent pipeline instance the Coordinator drives —
// typically a core.Engine. Each Runner owns its own randomness, model and
// synthesizer; the Coordinator never shares state between them. Whoever
// built the runners checkpoints and migrates them (the facade holds its
// engines directly); the Coordinator only fans timestamps out.
type Runner interface {
	ProcessTimestamp(t int, events []trajectory.Event, activeCount int) (StepResult, error)
	Synthetic(name string, T int) *trajectory.Dataset
	Stats() RunStats
}

// Coordinator fans a heavy event stream out across P independent pipeline
// instances — one per user shard (or tenant stream) — runs them in parallel
// every timestamp, and merges the released synthetic databases. Each user's
// reports always land on the same shard, so every shard sees a coherent
// sub-population and its w-event guarantee holds per user exactly as in the
// single-stream deployment; the merged release is the union of the per-shard
// releases.
//
// Coordinator is not safe for concurrent use by multiple goroutines; it owns
// the per-timestamp fan-out/fan-in itself.
type Coordinator struct {
	shards []Runner
	bufs   [][]trajectory.Event
}

// NewCoordinator wraps the given pipeline instances. At least one is
// required.
func NewCoordinator(shards []Runner) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("pipeline: Coordinator needs at least one shard")
	}
	return &Coordinator{
		shards: shards,
		bufs:   make([][]trajectory.Event, len(shards)),
	}, nil
}

// ShardOf maps a user ID onto its shard with a splitmix64 finalizer, so
// consecutive user IDs spread evenly instead of clumping.
func (c *Coordinator) ShardOf(user int) int {
	x := uint64(user) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(c.shards)))
}

// ProcessTimestamp fans the timestamp's events out by user ID, runs every
// shard concurrently, and returns the per-shard step results. activeCount is
// apportioned to the shards proportionally to their present (non-quitting)
// users, so the merged synthetic release tracks the global population.
func (c *Coordinator) ProcessTimestamp(t int, events []trajectory.Event, activeCount int) ([]StepResult, error) {
	for i := range c.bufs {
		c.bufs[i] = c.bufs[i][:0]
	}
	present := make([]int, len(c.shards))
	for _, ev := range events {
		s := c.ShardOf(ev.User)
		c.bufs[s] = append(c.bufs[s], ev)
		if ev.State.Kind != transition.Quit {
			present[s]++
		}
	}
	targets := apportion(activeCount, present)

	results := make([]StepResult, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh Runner) {
			defer wg.Done()
			results[i], errs[i] = sh.ProcessTimestamp(t, c.bufs[i], targets[i])
		}(i, sh)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// Run replays a whole recorded stream and returns the merged release.
func (c *Coordinator) Run(stream *trajectory.Stream, name string) (*trajectory.Dataset, RunStats, error) {
	for t := 0; t < stream.T; t++ {
		if _, err := c.ProcessTimestamp(t, stream.At(t), stream.Active[t]); err != nil {
			return nil, c.Stats(), err
		}
	}
	return c.Synthetic(name, stream.T), c.Stats(), nil
}

// Synthetic merges the shards' current releases into one database.
func (c *Coordinator) Synthetic(name string, T int) *trajectory.Dataset {
	out := &trajectory.Dataset{Name: name, T: T}
	for _, sh := range c.shards {
		out.Trajs = append(out.Trajs, sh.Synthetic(name, T).Trajs...)
	}
	return out
}

// Stats sums the shards' run statistics. Timestamps and Relayouts are
// per-shard counts (every shard sees every timestamp and every migration
// barrier), not sums.
func (c *Coordinator) Stats() RunStats {
	var out RunStats
	for i, sh := range c.shards {
		st := sh.Stats()
		if i == 0 {
			out.Timestamps = st.Timestamps
			out.Relayouts = st.Relayouts
		}
		out.merge(st)
	}
	return out
}

// apportion splits total into len(weights) integer parts proportional to
// weights, by largest remainder with ties broken toward lower indices. When
// total equals the weight sum the split is exactly the weights; an all-zero
// weight vector splits evenly.
func apportion(total int, weights []int) []int {
	n := len(weights)
	out := make([]int, n)
	if total <= 0 || n == 0 {
		return out
	}
	sum := 0
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		base := total / n
		for i := range out {
			out[i] = base
			if i < total%n {
				out[i]++
			}
		}
		return out
	}
	type rem struct {
		idx  int
		frac int // numerator of the fractional remainder, scale sum
	}
	rems := make([]rem, n)
	assigned := 0
	for i, w := range weights {
		q := total * w
		out[i] = q / sum
		assigned += out[i]
		rems[i] = rem{idx: i, frac: q % sum}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; i < total-assigned; i++ {
		out[rems[i%n].idx]++
	}
	return out
}
