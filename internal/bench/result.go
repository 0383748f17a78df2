// Package bench regenerates the paper's evaluation (§9): one runner per
// figure, each producing the table of rows behind that figure. Absolute
// numbers differ from the paper (different hardware, Go instead of
// Python, laptop-scale data), but the comparisons — who wins, by what
// factor, where the trends go — are the reproduction target. Besides
// the figures it keeps the ablations and the shards smoke that CI runs;
// performance is measured by the benchmark/ module, not here.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Result is one experiment's output table.
type Result struct {
	Name   string
	Figure string // the paper figure this regenerates
	Note   string
	Header []string
	Rows   [][]string
}

// Add appends a row of already-formatted cells.
func (r *Result) Add(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (r *Result) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s (%s)\n", r.Name, r.Figure); err != nil {
		return err
	}
	if r.Note != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", r.Note); err != nil {
			return err
		}
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(r.Header)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Options tune experiment scale. The defaults keep the full suite
// minutes-scale; Quick shrinks everything for smoke tests.
type Options struct {
	// SF is the base data scale factor (default 1).
	SF float64
	// Overlap is the base overlap scale (default 0.2).
	Overlap float64
	// Samples is the base sample count N (default 2000).
	Samples int
	// Seed drives data generation and sampling (default 1).
	Seed int64
	// Quick shrinks sweeps for CI smoke runs.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.SF <= 0 {
		o.SF = 1
	}
	if o.Overlap <= 0 {
		o.Overlap = 0.2
	}
	if o.Samples <= 0 {
		o.Samples = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Quick {
		if o.SF > 0.4 {
			o.SF = 0.4
		}
		if o.Samples > 300 {
			o.Samples = 300
		}
	}
	return o
}

// Runner is one experiment.
type Runner func(Options) (*Result, error)

// Experiments maps experiment ids to runners: the paper's figures in
// the order it presents them, then the ablations and the shards smoke.
func Experiments() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"fig4a", Fig4aRatioErrorUQ1},
		{"fig4b", Fig4bRatioErrorUQ3},
		{"fig4c", Fig4cEstimationRuntimeUQ1},
		{"fig4d", Fig4dEstimationRuntimeUQ3},
		{"fig5a", Fig5aRatioErrorMethods},
		{"fig5b", Fig5bTimeVsScale},
		{"fig5c", Fig5cTimeVsSamplesUQ1},
		{"fig5d", Fig5dTimeVsSamplesUQ2},
		{"fig5e", Fig5eTimeVsSamplesUQ3},
		{"fig5f", Fig5fBreakdownUQ1},
		{"fig5g", Fig5gBreakdownUQ2},
		{"fig5h", Fig5hBreakdownUQ3},
		{"fig6a", Fig6aReuse},
		{"fig6b", Fig6bPhaseCost},
		{"thm2", Thm2CostBound},
		{"ablation-split", AblationSplit},
		{"ablation-zeroscore", AblationZeroScore},
		{"ablation-bernoulli", AblationBernoulli},
		{"scale-joins", ScaleJoins},
		{"shards", Shards},
	}
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}
