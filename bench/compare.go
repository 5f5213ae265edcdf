package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func loadSuite(path string) (*suiteResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges B against the base A for one metric. A spread (distance
// between the quartiles, as a share of the median) wider than the metric's
// bound on either side cannot resolve a change of that size: unresolved, not
// same. Otherwise B is worse or better when its median moved by more than
// the bound, in the metric's direction.
func verdict(m metricSpec, a, b summary) string {
	spread := func(s summary) float64 { return (s.Q3 - s.Q1) / s.Median }
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return verdictUnresolved
	}
	change := (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return verdictWorse
	case change < -m.Bound:
		return verdictBetter
	default:
		return verdictSame
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of two suite
// results, A the base, and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := loadSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (commit %s)\nB = %s (commit %s)\n", pathA, a.Env["commit"], pathB, b.Env["commit"])
	fmt.Fprintf(w, "%-16s %-18s %-7s %30s %30s %18s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "B/A (base A)", "verdict")
	for _, wl := range workloads {
		wa, okA := a.Workloads[wl.name]
		wb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa.N == 0 || sb.N == 0 {
				return false, fmt.Errorf("%s/%s is missing from one of the results", wl.name, m.Name)
			}
			v := verdict(m, sa, sb)
			anyWorse = anyWorse || v == verdictWorse
			cell := func(s summary) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Median, s.Q1, s.Q3, s.N)
			}
			fmt.Fprintf(w, "%-16s %-18s %-7s %30s %30s %18s  %s\n", wl.name, m.Name, m.Unit, cell(sa), cell(sb),
				fmt.Sprintf("%.4f of %.5g", sb.Median/sa.Median, sa.Median), v)
		}
	}
	return anyWorse, nil
}
