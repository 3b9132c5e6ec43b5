// Command icdbench regenerates the paper's evaluation artifacts: every
// figure and table of Byers et al., "Informed Content Delivery Across
// Adaptive Overlay Networks" (SIGCOMM 2002), printed as text tables in
// the same rows/series the paper plots.
//
// Usage:
//
//	icdbench -list
//	icdbench -exp fig5a [-n 2000] [-trials 5] [-seed 1]
//	icdbench -exp lab [-labmax 100]
//	icdbench -all [-n 2000] [-trials 5]
//
// Experiment ids follow the paper: fig1, fig4a, tab4b, tab4c, fig5a,
// fig5b, fig6a, fig6b, fig7a, fig7b, fig8a, fig8b, coding — plus lab,
// the 100/1000-node scenario lab; -list is the experiment index. Speed
// is not measured here: the benchmark is `bash bench/run.sh`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"icd/internal/experiment"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		all     = flag.Bool("all", false, "run every experiment")
		exp     = flag.String("exp", "", "experiment id to run")
		n       = flag.Int("n", 0, "source blocks for transfer experiments (default 2000)")
		trials  = flag.Int("trials", 0, "trials per data point (default 5)")
		setSize = flag.Int("setsize", 0, "set size for reconciliation experiments (default 10000)")
		diffs   = flag.Int("diffs", 0, "planted differences (default 100)")
		seed    = flag.Uint64("seed", 0, "experiment seed (default 1)")
		labMax  = flag.Int("labmax", 0, "with -exp lab: cap the scenario node counts (0 = canonical 100 and 1000)")
	)
	flag.Parse()

	if *list {
		for _, r := range experiment.Registry() {
			fmt.Printf("%-8s %s\n", r.ID, r.Description)
		}
		return
	}

	opts := experiment.Options{
		N: *n, Trials: *trials, SetSize: *setSize, Diffs: *diffs, Seed: *seed, LabMax: *labMax,
	}

	run := func(r experiment.Runner) {
		start := time.Now()
		out, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icdbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Println(out.String())
		fmt.Printf("(%s in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}

	switch {
	case *all:
		for _, r := range experiment.Registry() {
			run(r)
		}
	case *exp != "":
		r, ok := experiment.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "icdbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		run(r)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
