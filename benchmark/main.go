// Command benchmark is the repository's one repeatable benchmark: four
// fixed-schedule, two-worker closed-loop workloads over the sampler as a
// library and as a server, four bounded end-to-end metrics and five
// unbounded end-to-end timings, and a traced run that attributes time to
// layers. See README.md beside this file.
//
//	bash benchmark/run.sh --workload serve_read --seed 1 --seconds 20 --trace 0
//
// One invocation runs one workload in one process, prints every metric
// by name with its unit, checks its outputs, and ends with one JSON
// line; a failed check makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "workload seed: data, sampler streams and op schedule derive from it")
		seconds   = flag.Float64("seconds", 20, "how long the timed rounds measure")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics and writing trace-<workload>.json")
		quick     = flag.Bool("quick", false, "smoke size: a tenth of the data and ops, 2 rounds; without -workload runs all four")
		selfcheck = flag.Bool("selfcheck", false, "run two alternating sets of runs of this binary and compare them against the bounds")
		runs      = flag.Int("runs", 5, "runs per set under -selfcheck")
		outDir    = flag.String("out", ".bench_build", "directory for trace files and scratch data (created; scratch removed at exit)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	// Exactly one P per worker: the load is nproc closed-loop clients on
	// the reference host, whatever the machine this runs on has.
	runtime.GOMAXPROCS(workers)
	if *seed == 0 {
		*seed = 1 // the library and the server both read seed 0 as "default"
	}
	if err := os.MkdirAll(*outDir, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *selfcheck {
		os.Exit(selfCheck(*runs, *seed, *seconds, *outDir, os.Stdout))
	}
	names := []string{*workload}
	if *workload == "" {
		if !*quick {
			fmt.Fprintln(os.Stderr, "benchmark: -workload is required (one of "+strings.Join(workloadNames(), ", ")+")")
			os.Exit(2)
		}
		names = workloadNames()
	}
	code := 0
	for _, name := range names {
		fx := fixtureByName(name)
		if fx == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (valid: %s)\n", name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		if *quick {
			fx = fx.scaled()
		}
		cfg := config{fx: fx, seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir}
		res, err := runOne(cfg, *trace == 1, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(fixtures))
	for i, fx := range fixtures {
		names[i] = fx.name
	}
	return names
}

// runOne runs one workload and prints its result line last.
func runOne(cfg config, traced bool, out io.Writer) (*result, error) {
	run := runUntraced
	if traced {
		run = runTraced
	}
	res, err := run(cfg, out)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}
