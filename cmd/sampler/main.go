// Command sampler draws uniform samples from the set union of either a
// built-in workload (UQ1, UQ2, UQ3) or a user-provided union spec over
// CSV relations (see internal/spec for the format), writing them as
// CSV.
//
// It prepares a sampling session once (one warm-up) and then draws; with
// -workers > 1 the draw fans out over the shared session.
//
// Usage:
//
//	sampler -workload UQ1 -n 1000 -warmup random-walk
//	sampler -spec union.spec -data ./data -n 1000 -workers 4
//
// -warmup is sampleunion.Options' Warmup, spelled as the library spells
// it; left out, it means random-walk.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sampleunion"
	"sampleunion/internal/spec"
	"sampleunion/internal/tpch"
)

func main() {
	workload := flag.String("workload", "UQ1", "built-in workload: UQ1, UQ2, or UQ3")
	specPath := flag.String("spec", "", "union spec file (overrides -workload)")
	dataDir := flag.String("data", "", "data directory for -spec CSV files (default: spec's directory)")
	n := flag.Int("n", 1000, "number of samples")
	sf := flag.Float64("sf", 1, "scale factor (built-in workloads)")
	ov := flag.Float64("overlap", 0.2, "overlap scale (built-in workloads)")
	seed := flag.Int64("seed", 1, "random seed")
	warmup := flag.String("warmup", "", "warm-up: histogram, random-walk, or exact; empty means random-walk")
	online := flag.Bool("online", false, "use the online sampler (Algorithm 2)")
	workers := flag.Int("workers", 1, "parallel sampling workers sharing one warm-up")
	showStats := flag.Bool("stats", true, "print run statistics to stderr")
	flag.Parse()

	o, err := options(*warmup, *online, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	u, err := loadUnion(*specPath, *dataDir, *workload, *sf, *ov, *seed)
	if err == nil {
		err = run(u, *n, *workers, o, *showStats)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func loadUnion(specPath, dataDir, workload string, sf, ov float64, seed int64) (*sampleunion.Union, error) {
	if specPath != "" {
		u, err := spec.ParseFile(specPath, dataDir)
		if err != nil {
			return nil, err
		}
		return sampleunion.NewUnion(u.Joins...)
	}
	w, err := tpch.ByName(workload, tpch.Config{SF: sf, Overlap: ov, Seed: seed})
	if err != nil {
		return nil, err
	}
	return sampleunion.NewUnion(w.Joins...)
}

// options hands the -warmup string to the library as it is and has
// Options.Canonical judge it, so a typo (-warmup=histgram) is an error
// here, before any data is generated, rather than a sample under a
// configuration the user did not ask for. The library names the field as
// the wire does; the flag is that name behind a dash.
func options(warmup string, online bool, seed int64) (sampleunion.Options, error) {
	o, err := sampleunion.Options{
		Warmup: sampleunion.Warmup(warmup),
		Online: online,
		Seed:   seed,
	}.Canonical()
	if err != nil {
		return o, errors.New(strings.ReplaceAll(err.Error(), "warmup ", "-warmup "))
	}
	return o, nil
}

func run(u *sampleunion.Union, n, workers int, o sampleunion.Options, showStats bool) error {
	s, err := u.Prepare(o)
	if err != nil {
		return err
	}

	// One batch call (or one batch per worker): the CLI always wants
	// all n tuples at once, so it pays batch-engine prices.
	var tuples []sampleunion.Tuple
	var stats *sampleunion.Stats
	if workers > 1 {
		tuples, err = s.SampleParallel(n, workers)
	} else {
		tuples, stats, err = s.Sample(n)
	}
	if err != nil {
		return err
	}

	// Header then rows as CSV.
	schema := s.OutputSchema()
	for i := 0; i < schema.Len(); i++ {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Print(schema.Attr(i))
	}
	fmt.Println()
	for _, t := range tuples {
		for i, v := range t {
			if i > 0 {
				fmt.Print(",")
			}
			fmt.Print(strconv.FormatInt(int64(v), 10))
		}
		fmt.Println()
	}
	if showStats {
		fmt.Fprintf(os.Stderr, "warmup=%v |U|≈%.0f", s.WarmupTime(), s.UnionSize())
		if stats != nil {
			fmt.Fprintf(os.Stderr, " %v", stats)
		}
		fmt.Fprintln(os.Stderr)
	}
	return nil
}
