package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck runs the suite as two alternating sets of runs of this same
// binary (A, B, A, B, ...; run i of either set uses seed base+i) and
// prints, per workload and metric, both medians, both inter-quartile
// spreads and how much worse B's median is than A's. Same code on both
// sides: an end-to-end cell outside its bound is the benchmark's own
// noise, and makes the exit code 1. The timings have no bound; their
// rows show what a paired comparison on this host has to beat.
func selfCheck(runs int, base int64, seconds float64, outDir string, out io.Writer) int {
	if runs < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck needs -runs >= 2")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// values[workload][set][metric] = one value per run
	values := make(map[string]*[2]map[string][]float64)
	for _, fx := range fixtures {
		values[fx.name] = &[2]map[string][]float64{{}, {}}
	}
	for i := 0; i < runs; i++ {
		for set := 0; set < 2; set++ {
			for _, fx := range fixtures {
				res, err := runChild(exe, fx.name, base+int64(i), seconds, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s set %c run %d: %v\n", fx.name, 'A'+set, i, err)
					return 1
				}
				for name, m := range res.Metrics {
					values[fx.name][set][name] = append(values[fx.name][set][name], m.Value)
				}
				fmt.Fprintf(out, "run %d set %c %s done\n", i, 'A'+set, fx.name)
			}
		}
	}
	return report(out, values)
}

// runChild runs one untraced workload in a child process and parses
// the result line.
func runChild(exe, workload string, seed int64, seconds float64, outDir string) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run incorrect or with failed ops: %s", lines[len(lines)-1])
	}
	// The timings are not in the result line; take them from the
	// "metric <name> <value> <unit>" lines printed above it.
	for _, line := range lines[:len(lines)-1] {
		var name, unit string
		var v float64
		if n, _ := fmt.Sscanf(string(line), "metric %s %g %s", &name, &v, &unit); n == 3 {
			if _, dup := res.Metrics[name]; !dup {
				res.Metrics[name] = metric{v, unit}
			}
		}
	}
	return &res, nil
}

// worse is by how much of a's size b is worse than a, in the metric's
// direction; negative when b is better.
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// report prints the A/B table and returns the exit code: 1 if any
// end-to-end cell's spread (setup_s excepted, as in the acceptance rule)
// or median shift exceeds the metric's bound.
func report(out io.Writer, values map[string]*[2]map[string][]float64) int {
	code := 0
	fmt.Fprintf(out, "\n| workload | metric | median A | median B | IQR/median A | IQR/median B | B worse than A | bound | |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|\n")
	for _, fx := range fixtures {
		for _, s := range append(append([]metricSpec(nil), endToEnd...), timings...) {
			a, b := values[fx.name][0][s.name], values[fx.name][1][s.name]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			sa, sb, w := spread(a), spread(b), worse(ma, mb, s.better)
			bound, verdict := "none", ""
			if s.bound > 0 {
				bound, verdict = fmt.Sprintf("%.2f", s.bound), "ok"
				if w > s.bound || (s.name != "setup_s" && (sa > s.bound || sb > s.bound)) {
					verdict, code = "OUTSIDE", 1
				}
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %.3f | %.3f | %+.3f | %s | %s |\n",
				fx.name, s.name, ma, mb, sa, sb, w, bound, verdict)
		}
	}
	return code
}
