package retrasyn

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"retrasyn/internal/ldp"
	"retrasyn/internal/spatial"
	"retrasyn/internal/transition"
)

// flappingEvents returns each round's events. User 1000 runs alone first,
// present at 0, 2, 1+w and 3+w: it is quitted at 1 (its first absent
// round), reappears, is absent again at 3, is forgotten and re-admitted at
// 1+w, and is quitted at 2+w. Had the second absence been booked as a quit,
// its status would be forgotten at 3+w and the user sampled twice inside
// one window. Then users 0…n−1 flap at random: a
// present user stays with probability 0.6, an absent one appears with
// probability 0.3. A user enters when it appears, moves while it stays and
// sends its quit in its last present round.
func flappingEvents(seed uint64, T, w, n, cells int) [][]Event {
	present := make([]map[int]bool, T+1)
	for ts := range present {
		present[ts] = map[int]bool{}
	}
	for _, ts := range []int{0, 2, 1 + w, 3 + w} {
		present[ts][1000] = true
	}
	rng := ldp.NewRand(seed, 77)
	for ts := 2*w + 4; ts < T; ts++ {
		for id := range n {
			p := rng.Float64()
			present[ts][id] = present[ts-1][id] && p < 0.6 || !present[ts-1][id] && p < 0.3
		}
	}
	events := make([][]Event, T)
	for ts := range events {
		for id, on := range present[ts] {
			if !on {
				continue
			}
			c := spatial.Cell(id % cells)
			s := transition.MoveState(c, c)
			switch {
			case !present[ts+1][id]:
				s = transition.QuitState(c)
			case ts == 0 || !present[ts-1][id]:
				s = transition.EnterState(c)
			}
			events[ts] = append(events[ts], Event{User: id, State: s})
		}
		// Map order is random; the sampler draws over the events in order.
		slices.SortFunc(events[ts], func(a, b Event) int { return a.User - b.User })
	}
	return events
}

// TestFrameworkRosterWindowProperty drives random presence sequences with
// flapping and reappearing users through the facade — checkpointed and
// restored halfway — and requires that no user spends more than ε inside
// any window of w rounds.
func TestFrameworkRosterWindowProperty(t *testing.T) {
	const T, w = 160, 5
	g, err := NewGrid(4, Bounds{MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{StrategyUniform, StrategyAdaptive} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", strategy, seed), func(t *testing.T) {
				opts := Options{Grid: g, Epsilon: 1, Window: w, Division: PopulationDivision, Strategy: strategy, Lambda: 6, Seed: seed}
				fw, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				fw.engines[0].EnableLedger(T)
				for ts, events := range flappingEvents(seed, T, w, 30, g.NumCells()) {
					if ts == T/2 {
						cp, err := fw.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						var buf bytes.Buffer
						if err := cp.Encode(&buf); err != nil {
							t.Fatal(err)
						}
						if cp, err = DecodeCheckpoint(&buf); err != nil {
							t.Fatal(err)
						}
						if fw, err = Restore(opts, cp); err != nil {
							t.Fatal(err)
						}
					}
					if err := fw.ProcessTimestamp(events, len(events)); err != nil {
						t.Fatal(err)
					}
				}
				ledger := fw.engines[0].Ledger()
				if len(ledger.ReportsByUser[1000]) < 2 && strategy == StrategyUniform {
					t.Fatalf("scripted user reported at %v; the run misses the stale-entry sequence", ledger.ReportsByUser[1000])
				}
				if got := ledger.MaxUserWindowSum(w, func(int) float64 { return opts.Epsilon }); got > opts.Epsilon+1e-9 {
					t.Fatalf("a user spent %v inside one window, ε = %v", got, opts.Epsilon)
				}
			})
		}
	}
}

// TestFrameworkRosterSilentDeparture: users who leave without a Quit event
// — a device that drops, a feed cut short — are quitted at their first
// absent round and forgotten w rounds later, on every shard. The rosters
// hold no more than the present users plus w+1 rounds of leavers.
func TestFrameworkRosterSilentDeparture(t *testing.T) {
	const rounds, present, churn, w = 200, 60, 5, 5
	g, err := NewGrid(4, Bounds{MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Options{Grid: g, Epsilon: 1, Window: w, Division: PopulationDivision, Lambda: 6, Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var live []int
	var events []Event
	for ts, next := 0, 0; ts < rounds; ts++ {
		if len(live) >= present {
			live = live[churn:] // the oldest users vanish, sending nothing
		}
		events = events[:0]
		for _, id := range live {
			c := spatial.Cell(id % g.NumCells())
			events = append(events, Event{User: id, State: transition.MoveState(c, c)})
		}
		for range churn {
			events = append(events, Event{User: next, State: transition.EnterState(spatial.Cell(next % g.NumCells()))})
			live = append(live, next)
			next++
		}
		if err := fw.ProcessTimestamp(events, len(events)); err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, e := range fw.engines {
			st, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			held += len(st.Users.Status)
		}
		if bound := len(events) + (w+1)*churn; held > bound {
			t.Fatalf("t=%d: rosters hold %d users, bound %d", ts, held, bound)
		}
	}
}

// BenchmarkFrameworkProcessTimestamp measures one population-division round
// of the facade under steady churn: 2,000 users present, 40 arriving and 40
// quitting every round, w = 20. The roster then holds the present users plus
// w rounds of quitters, however long the run.
func BenchmarkFrameworkProcessTimestamp(b *testing.B) {
	const present, churn, w = 2000, 40, 20
	g, err := NewGrid(8, Bounds{MaxX: 1, MaxY: 1})
	if err != nil {
		b.Fatal(err)
	}
	fw, err := New(Options{Grid: g, Epsilon: 1, Window: w, Division: PopulationDivision, Lambda: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cells := g.NumCells()
	rng := ldp.NewRand(1, 2)
	live := make([]int, 0, present+churn)
	next := 0
	var events []Event
	round := func() {
		events = events[:0]
		quits := 0
		if len(live) >= present {
			quits = churn
		}
		kept := live[:0]
		for i, id := range live {
			c := spatial.Cell(id % cells)
			if rng.IntN(len(live)-i) < quits {
				quits--
				events = append(events, Event{User: id, State: transition.QuitState(c)})
				continue
			}
			events = append(events, Event{User: id, State: transition.MoveState(c, c)})
			kept = append(kept, id)
		}
		live = kept
		for range churn {
			events = append(events, Event{User: next, State: transition.EnterState(spatial.Cell(next % cells))})
			live = append(live, next)
			next++
		}
		if err := fw.ProcessTimestamp(events, len(events)); err != nil {
			b.Fatal(err)
		}
	}
	for range present/churn + 2*w { // fill the population, then churn past w
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		round()
	}
}
