package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"retrasyn/internal/allocation"
	"retrasyn/internal/ldp"
	"retrasyn/internal/spatial"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// TestRosterChurnSoak runs 10k population-division rounds in which q users
// arrive and q leave every round — with a Quit event, or silently, by no
// longer showing up. The roster holds only who can still matter — the
// present users plus at most w+1 rounds of leavers — and the users section
// of the checkpoint stays flat once warmed up, instead of growing by q
// entries a round.
func TestRosterChurnSoak(t *testing.T) {
	const (
		rounds  = 10000
		present = 60
		q       = 5
		warm    = 1000
	)
	for _, quitEvents := range []bool{true, false} {
		t.Run(fmt.Sprintf("quit-events=%v", quitEvents), func(t *testing.T) {
			opts := defaultOpts(allocation.Population)
			e, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			cells := opts.Space.NumCells()
			rng := ldp.NewRand(3, 4)
			// Ids start at 10^6 so that every id serializes to the same width.
			next := 1_000_000
			var live []int
			var events []trajectory.Event
			baseBytes := 0
			for ts := 0; ts < rounds; ts++ {
				events = events[:0]
				quits := 0
				if len(live) >= present {
					quits = q
				}
				kept := live[:0]
				for i, id := range live {
					c := spatial.Cell(id % cells)
					if rng.IntN(len(live)-i) < quits {
						quits--
						if quitEvents {
							events = append(events, trajectory.Event{User: id, State: transition.QuitState(c)})
						}
						continue
					}
					events = append(events, trajectory.Event{User: id, State: transition.MoveState(c, c)})
					kept = append(kept, id)
				}
				live = kept
				for range q {
					events = append(events, trajectory.Event{User: next, State: transition.EnterState(spatial.Cell(next % cells))})
					live = append(live, next)
					next++
				}
				if _, err := e.ProcessTimestamp(ts, events, len(events)); err != nil {
					t.Fatal(err)
				}
				if held, bound := len(e.users.status), len(events)+(opts.W+1)*q; held > bound {
					t.Fatalf("t=%d: roster holds %d users, bound %d", ts, held, bound)
				}
				if (ts+1)%warm == 0 {
					blob, err := json.Marshal(e.users.State())
					if err != nil {
						t.Fatal(err)
					}
					if baseBytes == 0 {
						baseBytes = len(blob)
					} else if float64(len(blob)) > 1.1*float64(baseBytes) {
						t.Fatalf("t=%d: users section %d bytes, %d after warm-up", ts, len(blob), baseBytes)
					}
				}
			}
		})
	}
}

// TestLedgerCountsRoundsPastT: a ledger enabled for T rounds keeps counting
// when the run goes on past T, so MaxWindowSum sees the late rounds.
func TestLedgerCountsRoundsPastT(t *testing.T) {
	const T = 20
	opts := defaultOpts(allocation.Budget)
	opts.Strategy = StrategyUniform
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableLedger(T)
	g := opts.Space
	var spent []float64
	for ts := 0; ts < T+opts.W; ts++ {
		events := []trajectory.Event{
			{User: 1, State: transition.MoveState(0, 0)},
			{User: 2, State: transition.MoveState(0, g.Neighbors(0)[1])},
		}
		res, err := e.ProcessTimestamp(ts, events, len(events))
		if err != nil {
			t.Fatal(err)
		}
		spent = append(spent, res.Epsilon)
	}
	eps := e.Ledger().EpsByT
	if len(eps) != T+opts.W {
		t.Fatalf("ledger covers %d rounds, ran %d", len(eps), T+opts.W)
	}
	late := 0.0
	for ts := T; ts < T+opts.W; ts++ {
		if eps[ts] != spent[ts] {
			t.Fatalf("EpsByT[%d] = %v, the round spent %v", ts, eps[ts], spent[ts])
		}
		late += spent[ts]
	}
	if late == 0 {
		t.Fatal("no late round collected; the run cannot test the ledger")
	}
	if got := e.Ledger().MaxWindowSum(opts.W); got < late-1e-12 || got > opts.Epsilon+1e-9 {
		t.Fatalf("MaxWindowSum = %v: the last window spent %v, ε = %v", got, late, opts.Epsilon)
	}
}
