package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runTimeout bounds one child run; the contract allows 180 s.
const runTimeout = 170 * time.Second

// summary is the distribution of one metric over a workload's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// workloadResult is one workload's part of a suite result.
type workloadResult struct {
	Why      string             `json:"why"`
	EndToEnd map[string]summary `json:"end_to_end"`
	// PerLayer are the single traced run's values.
	PerLayer map[string]metricValue `json:"per_layer"`
}

// suiteResult is what the suite writes and -compare reads.
type suiteResult struct {
	Env       map[string]string         `json:"env"`
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runSuite runs every workload (or the named one): runs untraced runs and
// one traced run, each in a fresh child process so that set-up time, peak
// RSS and GC state never leak from one run into the next.
func runSuite(only string, runs int, seed uint64, secs float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := suiteResult{Env: environment(), Seed: seed, Seconds: secs, Workloads: map[string]workloadResult{}}
	for k, v := range out.Env {
		fmt.Printf("# %s: %s\n", k, v)
	}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		wr := workloadResult{Why: w.why, EndToEnd: map[string]summary{}}
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			res, err := runChild(self, w.name, seed, secs, false, outDir)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		traced, err := runChild(self, w.name, seed, secs, true, outDir)
		if err != nil {
			return err
		}
		wr.PerLayer = traced.Metrics

		fmt.Printf("\n%s — %s\n", w.name, w.why)
		for _, m := range endToEnd {
			v := values[m.Name]
			q1, q3 := quartiles(v)
			s := summary{Unit: m.Unit, Median: median(v), Q1: q1, Q3: q3, N: len(v), Values: v}
			wr.EndToEnd[m.Name] = s
			fmt.Printf("  %-36s %14.6g %-8s q1 %.6g  q3 %.6g  n=%d  (%s is better, bound %.0f%%)\n",
				m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N, m.Better, 100*m.Bound)
		}
		fmt.Printf("  per layer, from the traced run (spans in %s):\n", filepath.Join(outDir, "trace-"+w.name+".jsonl"))
		for _, m := range perLayer {
			fmt.Printf("  %-36s %14.6g %s\n", m.Name, wr.PerLayer[m.Name].Value, m.Unit)
		}
		out.Workloads[w.name] = wr
	}
	if only != "" && len(out.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", path)
	return nil
}

// runChild executes one run in a child process and parses the result off the
// last line of its standard output. A run whose gates fail exits non-zero,
// which fails the suite.
func runChild(self, name string, seed uint64, secs float64, traced bool, outDir string) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", trace, "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("workload %s (trace %s): run exceeded %s", name, trace, runTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s (trace %s): %w", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("workload %s (trace %s): parsing result line: %w", name, trace, err)
	}
	return &res, nil
}

// environment records what the numbers were measured on.
func environment() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(hostCPUs()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(rev))
	}
	return env
}
