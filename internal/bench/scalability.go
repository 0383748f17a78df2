package bench

import (
	"fmt"
	"time"

	"sampleunion/internal/core"
	"sampleunion/internal/rng"
	"sampleunion/internal/tpch"
	"sampleunion/internal/walkest"
)

// ScaleJoins sweeps the number of joins in the union (UQ1 variants):
// warm-up cost grows with n — every join walks, and a walk of join j
// probes up to j earlier joins for its owner (§4 notes the number of
// input joins is small in practice) — while per-sample cost stays flat;
// this quantifies both.
func ScaleJoins(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Name:   "scalability with the number of joins (UQ1 variants)",
		Figure: "scale-joins",
		Header: []string{"joins", "warmup_ms", "sampling_ms", "us_per_sample", "union_est"},
	}
	counts := []int{2, 3, 4, 5, 6, 8}
	if o.Quick {
		counts = []int{2, 4}
	}
	for _, n := range counts {
		w, err := tpch.UQ1N(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed}, n)
		if err != nil {
			return nil, err
		}
		g := rng.New(o.Seed)
		p, err := core.PrepareCover(w.Joins, core.CoverConfig{
			Method: core.MethodEW,
			Estimator: &core.RandomWalkEstimator{
				Joins: w.Joins,
				Opts:  walkest.Options{MaxWalks: 500},
			},
		}, g)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := p.NewRun().Sample(o.Samples, g); err != nil {
			return nil, err
		}
		sampling := time.Since(start)
		res.Add(
			fmt.Sprintf("%d", n),
			ms(p.WarmupTime()),
			ms(sampling),
			fmt.Sprintf("%.2f", float64(sampling.Microseconds())/float64(o.Samples)),
			fmt.Sprintf("%.0f", p.Params().UnionSize),
		)
	}
	return res, nil
}
