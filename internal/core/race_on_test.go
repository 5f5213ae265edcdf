//go:build race

package core

// raceEnabled reports that the race detector is on; it instruments
// allocations, so allocation-count pins skip under it.
const raceEnabled = true
