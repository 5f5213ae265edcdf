package core

import (
	"testing"
	"testing/quick"

	"retrasyn/internal/allocation"
	"retrasyn/internal/trajectory"
)

// Randomized end-to-end invariants: for arbitrary small configurations the
// engine must uphold (1) structural validity of the release, (2) exact size
// mirroring under EQ modelling, and (3) the w-event accounting bound.

func TestEngineInvariantsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed uint64, wRaw, epsRaw, divRaw uint8) bool {
		g := testGrid()
		w := int(wRaw%8) + 2
		eps := 0.25 + float64(epsRaw%8)*0.25
		div := allocation.Budget
		if divRaw%2 == 1 {
			div = allocation.Population
		}
		data := walkDataset(g, 120, 25, 7, seed)
		stream := trajectory.NewStream(data)
		e, err := New(Options{Config: Config{
			Space: g, Epsilon: eps, W: w, Division: div,
			Lambda: 7, Seed: seed ^ 0xfeed,
		}})
		if err != nil {
			return false
		}
		syn, _ := e.Run(stream, "syn")
		if err := syn.Validate(g, true); err != nil {
			return false
		}
		counts := syn.ActiveCounts()
		for ts, want := range stream.Active {
			if counts[ts] != want {
				return false
			}
		}
		if div == allocation.Budget {
			if e.Ledger().MaxWindowSum(w) > eps+1e-9 {
				return false
			}
		} else {
			if e.Ledger().MaxUserWindowSum(w, func(int) float64 { return eps }) > eps+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
