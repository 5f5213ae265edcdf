// Traffic monitoring: the paper's motivating application (§I). A stream of
// vehicles reports locations in real time; the curator never sees raw
// trajectories, yet continuously maintains a synthetic database from which
// it serves congestion queries — here, per-timestamp hotspot detection and
// a congestion alert when a district's synthetic density crosses a
// threshold.
//
// The curator feeds each timestamp's events to the engine as they arrive,
// and halfway through the run it checkpoints itself, "crashes", and resumes
// from the checkpoint — the released stream is unaffected. The congestion
// queries go through the analytics engine over the live release.
//
// Run with:
//
//	go run ./examples/trafficmonitor
package main

import (
	"fmt"
	"log"

	"retrasyn"
)

const (
	k         = 6
	window    = 20
	epsilon   = 1.0
	alertFrac = 0.12 // alert when one cell holds >12% of current vehicles
)

func main() {
	// A road-network city with steady commuter flow.
	net, err := retrasyn.GenerateRoadNetwork(24, retrasyn.Bounds{MaxX: 20, MaxY: 20}, 3)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := retrasyn.GenerateBrinkhoffLike(net, retrasyn.BrinkhoffConfig{
		T: 90, InitialUsers: 1200, NewUsersPerTs: 80, QuitProb: 1.0 / 40, Jitter: 0.1, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	g, err := retrasyn.NewGrid(k, retrasyn.Bounds{MaxX: 20, MaxY: 20})
	if err != nil {
		log.Fatal(err)
	}
	orig := retrasyn.Discretize(raw, g)

	opts := retrasyn.Options{
		Grid:    g,
		Epsilon: epsilon,
		Window:  window,
		Lambda:  orig.Stats().AvgLength,
		Seed:    5,
	}
	fw, err := retrasyn.New(opts)
	if err != nil {
		log.Fatal(err)
	}

	// The device-side event feed: at each timestamp every present vehicle
	// holds exactly one transition state (enter / move / quit).
	events, active := retrasyn.NewStreamEvents(orig)

	fmt.Printf("monitoring %d timestamps of live traffic (ε=%.1f, w=%d)...\n\n",
		orig.T, epsilon, window)

	half := orig.T / 2
	alerts := 0

	// First half of the stream, then checkpoint and "crash".
	process(fw, events, active, 0, half)
	cp, err := fw.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	reportWindow(fw, g, 0, half, &alerts)
	fmt.Printf("\n-- t=%d: curator checkpointed (%d shard states) and stopped; restoring --\n\n", cp.T, len(cp.States))

	// A fresh process resumes from the checkpoint and ingests the rest.
	fw2, err := retrasyn.Restore(opts, cp)
	if err != nil {
		log.Fatal(err)
	}
	process(fw2, events, active, half, orig.T)
	reportWindow(fw2, g, half, orig.T, &alerts)

	fmt.Printf("\n%d congestion alerts raised — all served from the private synthetic stream.\n", alerts)

	// Sanity: how faithful was the live hotspot view?
	r := retrasyn.EvaluateUtility(orig, fw2.Synthetic("final"), g, retrasyn.UtilityOptions{Seed: 9})
	fmt.Printf("hotspot NDCG vs ground truth: %.3f (1.0 = perfect ranking)\n", r.HotspotNDCG)
}

// process feeds timestamps [from, to) of the event stream to the engine,
// one round per timestamp.
func process(fw *retrasyn.Framework, events [][]retrasyn.Event, active []int, from, to int) {
	for ts := from; ts < to; ts++ {
		if err := fw.ProcessTimestamp(events[ts], active[ts]); err != nil {
			log.Fatal(err)
		}
	}
}

// reportWindow serves congestion queries from the synthetic database for
// timestamps [from, to).
func reportWindow(fw *retrasyn.Framework, g *retrasyn.Grid, from, to int, alerts *int) {
	a := retrasyn.NewAnalytics(fw.Synthetic("live"), g)
	for ts := from; ts < to; ts++ {
		if (ts+1)%15 != 0 {
			continue
		}
		total := a.ActiveAt(ts)
		if total == 0 {
			continue
		}
		top := a.TopCells(ts, ts, 3)
		fmt.Printf("t=%2d | %4d vehicles | top districts:", ts, total)
		for _, tc := range top {
			row, col := g.RowCol(tc.Cell)
			fmt.Printf("  (%d,%d)=%d", row, col, tc.Count)
		}
		if float64(top[0].Count) > alertFrac*float64(total) {
			fmt.Printf("  ⚠ congestion alert")
			*alerts++
		}
		fmt.Println()
	}
}
