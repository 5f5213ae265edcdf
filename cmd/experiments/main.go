// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp table3                 # one artifact
//	experiments -exp all -scale 1.0         # the full evaluation
//	experiments -exp fig6 -scale 0.3        # quicker sweep
//
// Artifacts: table1, table3, table4, table5, fig3, fig4, fig5, fig6, fig7.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"retrasyn/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// order lists the artifacts in the order -exp all regenerates them.
var order = []string{"table1", "table3", "table4", "table5", "fig3", "fig4", "fig5", "fig6", "fig7"}

// run parses args, rejecting unusable flags before any dataset is
// generated, and writes the selected artifacts to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "artifact to regenerate ("+strings.Join(order, "|")+"|all)")
		scale    = fs.Float64("scale", 1.0, "dataset population scale")
		eps      = fs.Float64("eps", 1.0, "default privacy budget ε")
		w        = fs.Int("w", 20, "default window size w")
		k        = fs.Int("k", 6, "default granularity K")
		phi      = fs.Int("phi", 10, "default evaluation range φ")
		seed     = fs.Uint64("seed", 2024, "seed")
		parallel = fs.Int("parallel", 0, "max concurrent runs (default NumCPU)")
		bestOf   = fs.Bool("bestof", true, "Table III: report best across allocation strategies")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Params would silently replace these with the paper's defaults.
	switch {
	case !(*eps > 0):
		return fmt.Errorf("-eps must be > 0, got %v", *eps)
	case *w < 1:
		return fmt.Errorf("-w must be ≥ 1, got %d", *w)
	case *k < 1:
		return fmt.Errorf("-k must be ≥ 1, got %d", *k)
	case !(*scale > 0):
		return fmt.Errorf("-scale must be > 0, got %v", *scale)
	}
	selected := order
	if name := strings.ToLower(*exp); name != "all" {
		if !slices.Contains(order, name) {
			return fmt.Errorf("unknown -exp %q (want one of %s, all)", *exp, strings.Join(order, ", "))
		}
		selected = []string{name}
	}

	p := experiments.DefaultParams()
	p.Scale = *scale
	p.Epsilon = *eps
	p.W = *w
	p.K = *k
	p.Phi = *phi
	p.Seed = *seed
	p.BestOf = *bestOf
	if *parallel > 0 {
		p.Parallelism = *parallel
	}
	env := experiments.NewEnv(p)

	runners := map[string]func() (fmt.Stringer, error){
		"table1": func() (fmt.Stringer, error) { return env.Table1() },
		"table3": func() (fmt.Stringer, error) { return env.Table3(nil) },
		"table4": func() (fmt.Stringer, error) { return env.Table4() },
		"table5": func() (fmt.Stringer, error) { return env.Table5() },
		"fig3":   func() (fmt.Stringer, error) { return env.Fig3() },
		"fig4":   func() (fmt.Stringer, error) { return env.Fig4(nil) },
		"fig5":   func() (fmt.Stringer, error) { return env.Fig5(nil) },
		"fig6":   func() (fmt.Stringer, error) { return env.Fig6(nil) },
		"fig7":   func() (fmt.Stringer, error) { return env.Fig7(nil) },
	}
	fmt.Fprintf(stdout, "# RetraSyn evaluation — scale=%.2f ε=%.1f w=%d K=%d φ=%d seed=%d\n",
		p.Scale, p.Epsilon, p.W, p.K, p.Phi, p.Seed)
	for _, name := range selected {
		start := time.Now()
		res, err := runners[name]()
		if err != nil {
			return fmt.Errorf("%s failed: %w", name, err)
		}
		fmt.Fprintf(stdout, "\n================ %s (%.1fs) ================\n\n%s",
			name, time.Since(start).Seconds(), res.String())
	}
	return nil
}
