// Command unionbench regenerates the paper's evaluation tables
// (Fig 4a–4d, Fig 5a–5h, Fig 6a–6b, the Theorem 2 cost check), the
// ablations, and the shards smoke CI runs. Performance is measured by
// the benchmark module: bash benchmark/run.sh.
//
// Usage:
//
//	unionbench                      # run every experiment at defaults
//	unionbench -exp fig5c           # one experiment
//	unionbench -exp shards          # shard-parallel throughput vs core count
//	unionbench -sf 2 -overlap 0.4   # scale knobs
//	unionbench -quick               # CI-sized smoke run
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sampleunion/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (see -list); empty runs all")
	sf := flag.Float64("sf", 1, "TPC-H scale factor")
	ov := flag.Float64("overlap", 0.2, "overlap scale P")
	n := flag.Int("n", 2000, "base sample count")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "shrink sweeps for a smoke run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Println(e.ID)
		}
		return
	}
	opts := bench.Options{SF: *sf, Overlap: *ov, Samples: *n, Seed: *seed, Quick: *quick}
	run := func(id string, r bench.Runner) error {
		start := time.Now()
		res, err := r(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := res.Fprint(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("# %s completed in %v\n\n", id, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if *exp != "" {
		r, ok := bench.Lookup(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		if err := run(*exp, r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for _, e := range bench.Experiments() {
		if err := run(e.ID, e.Run); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
