package bench

import (
	"fmt"
	"time"

	"sampleunion/internal/core"
	"sampleunion/internal/histest"
	"sampleunion/internal/overlap"
	"sampleunion/internal/rng"
	"sampleunion/internal/tpch"
)

// This file holds ablation experiments beyond the paper's figures: each
// isolates one design choice of the framework (splitting vs direct
// profiles, template scoring, Bernoulli vs non-Bernoulli join selection).

// AblationSplit compares §5.1's direct equi-length-chain estimation
// against forcing the §5.2 splitting method on the same (aligned) UQ1
// joins: the splitting detour may only loosen the overlap bound, and
// this quantifies by how much.
func AblationSplit(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Name:   "splitting method vs direct chain estimation (UQ1)",
		Figure: "ablation-split",
		Header: []string{"overlap_scale", "exact_overlap", "direct_bound", "split_bound", "direct_ms", "split_ms"},
	}
	for _, p := range overlapSweep(o) {
		w, err := tpch.UQ1N(tpch.Config{SF: o.SF, Overlap: p, Seed: o.Seed}, 2)
		if err != nil {
			return nil, err
		}
		exact, _, err := overlap.Exact(w.Joins)
		if err != nil {
			return nil, err
		}
		pair := uint(0b11)
		run := func(force bool) (float64, time.Duration, error) {
			start := time.Now()
			est, err := histest.New(w.Joins, histest.Options{Sizes: histest.SizeEO, ForceSplit: force})
			if err != nil {
				return 0, 0, err
			}
			tab, err := est.Estimate()
			if err != nil {
				return 0, 0, err
			}
			return tab.Get(pair), time.Since(start), nil
		}
		direct, dTime, err := run(false)
		if err != nil {
			return nil, err
		}
		split, sTime, err := run(true)
		if err != nil {
			return nil, err
		}
		res.Add(f(p), fmt.Sprintf("%.0f", exact.Get(pair)),
			fmt.Sprintf("%.0f", direct), fmt.Sprintf("%.0f", split),
			ms(dTime), ms(sTime))
	}
	return res, nil
}

// AblationZeroScore sweeps the §8.1.2 alternating-score hyper-parameter
// on UQ3: the weight substituted for co-located attribute pairs during
// template search, which trades template fidelity against bound
// tightness.
func AblationZeroScore(o Options) (*Result, error) {
	o = o.withDefaults()
	w, err := tpch.UQ3(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	truth, err := (&core.ExactEstimator{Joins: w.Joins}).Params(nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "template zero-score hyper-parameter on UQ3",
		Figure: "ablation-zeroscore",
		Header: []string{"zero_score", "union_estimate", "exact_union", "mean_ratio_err"},
	}
	scores := []float64{0, 0.25, 0.5, 1}
	if o.Quick {
		scores = []float64{0, 0.5}
	}
	for _, z := range scores {
		p, err := (&core.HistogramEstimator{
			Joins: w.Joins, Opts: histest.Options{Sizes: histest.SizeEO, ZeroScore: z},
		}).Params(nil)
		if err != nil {
			return nil, err
		}
		meanErr := 0.0
		for j := range w.Joins {
			meanErr += p.RatioError(j, truth)
		}
		meanErr /= float64(len(w.Joins))
		res.Add(f(z), fmt.Sprintf("%.0f", p.UnionSize),
			fmt.Sprintf("%.0f", truth.UnionSize), f(meanErr))
	}
	return res, nil
}

// AblationBernoulli compares the §3 Bernoulli union-trick sampler with
// Algorithm 1's non-Bernoulli cover selection: subroutine draws per
// accepted sample as overlap grows — the efficiency argument for the
// cover (§3.1), which the paper asserts but does not measure.
func AblationBernoulli(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Name:   "Bernoulli union trick vs non-Bernoulli cover selection (UQ1)",
		Figure: "ablation-bernoulli",
		Header: []string{"overlap_scale", "bernoulli_draws_per_sample", "cover_draws_per_sample"},
	}
	for _, p := range overlapSweep(o) {
		w, err := tpch.UQ1N(tpch.Config{SF: o.SF, Overlap: p, Seed: o.Seed}, 3)
		if err != nil {
			return nil, err
		}
		bg := rng.New(o.Seed)
		bp, err := core.PrepareBernoulli(w.Joins, core.CoverConfig{
			Method:    core.MethodEW,
			Estimator: &core.ExactEstimator{Joins: w.Joins},
		}, bg)
		if err != nil {
			return nil, err
		}
		bs := bp.NewRun()
		if _, err := bs.Sample(o.Samples, bg); err != nil {
			return nil, err
		}
		cg := rng.New(o.Seed)
		cp, err := core.PrepareCover(w.Joins, core.CoverConfig{
			Method:    core.MethodEW,
			Estimator: &core.ExactEstimator{Joins: w.Joins},
		}, cg)
		if err != nil {
			return nil, err
		}
		cs := cp.NewRun()
		if _, err := cs.Sample(o.Samples, cg); err != nil {
			return nil, err
		}
		bd := float64(bs.Stats().TotalDraws) / float64(bs.Stats().Accepted)
		cd := float64(cs.Stats().TotalDraws) / float64(cs.Stats().Accepted)
		res.Add(f(p), f(bd), f(cd))
	}
	return res, nil
}
