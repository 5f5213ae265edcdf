// Command bench is the repository's benchmark: five workloads, end-to-end
// and per-layer metrics, one traced run. See README.md in this directory.
//
// With -workload (and no -runs) it executes one run in this process and
// prints the result as one JSON object on the last line of standard output —
// the protocol BENCHMARK.json's command is driven by. Without -workload, or
// with -runs, it runs the suite: every run in a fresh child process, medians
// and quartiles per metric. With -compare it compares two suite results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: the suite over all of them)")
		seed    = flag.Uint64("seed", defaultSeed, "seed of dataset generation, perturbation and the engine")
		secs    = flag.Float64("seconds", runSeconds, "length of a run's timed phase")
		trace   = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics and writing the spans; 0: end-to-end metrics")
		runs    = flag.Int("runs", 0, "suite: untraced runs per workload, each followed by one traced run (default 5)")
		compare = flag.Bool("compare", false, "compare two suite result files given as arguments: A.json B.json")
		outDir  = flag.String("out", defaultOutDir(), "directory for traced spans and suite results")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as the metric tables in this program define it")
	)
	flag.Parse()

	switch {
	case *spec:
		doc, err := benchmarkJSON()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(doc)
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files, got %d arguments", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if err := pinProcs(); err != nil {
		return fail(err)
	}
	if *name == "" || *runs > 0 {
		if *runs == 0 {
			*runs = 5
		}
		if err := runSuite(*name, *runs, *seed, *secs, *outDir); err != nil {
			return fail(err)
		}
		return 0
	}

	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runOnce(runConfig{workload: w, seed: *seed, seconds: *secs, traced: *trace != 0, outDir: *outDir})
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *name, err))
	}
	for _, g := range res.gates {
		fmt.Fprintf(os.Stderr, "bench: %s: gate failed: %s\n", *name, g)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// hostCPUs is the number of CPUs this process may run on (what nproc
// prints). It also drives ldp.DefaultWorkers inside the program.
func hostCPUs() int { return runtime.NumCPU() }

// pinProcs fixes the load shape's thread budget: GOMAXPROCS = min(2, nproc),
// for the two gateways that may be in flight at once. It refuses a
// GOMAXPROCS from the environment that exceeds the CPUs available, which
// would time threads fighting for a core.
func pinProcs() error {
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > hostCPUs() {
			return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", n, hostCPUs())
		}
	}
	runtime.GOMAXPROCS(min(2, hostCPUs()))
	return nil
}

// defaultOutDir is bench/out from the repository root and out from inside
// the benchmark's own directory.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}
