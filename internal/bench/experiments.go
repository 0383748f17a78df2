package bench

import (
	"fmt"
	"math"
	"time"

	"sampleunion/internal/core"
	"sampleunion/internal/histest"
	"sampleunion/internal/rng"
	"sampleunion/internal/tpch"
	"sampleunion/internal/walkest"
)

func overlapSweep(o Options) []float64 {
	if o.Quick {
		return []float64{0.2, 0.6}
	}
	return []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}
}

func sampleSweep(o Options) []int {
	if o.Quick {
		return []int{50, o.Samples}
	}
	return []int{200, 500, 1000, 2000, 5000, 10000}
}

func scaleSweep(o Options) []float64 {
	if o.Quick {
		return []float64{0.2, 0.4}
	}
	return []float64{0.25, 0.5, 1, 2}
}

func f(v float64) string { return fmt.Sprintf("%.4f", v) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// ratioErrors runs the estimator and returns per-join |J_i|/|U| ratio
// errors against exact parameters plus their mean.
func ratioErrors(w *tpch.Workload, est core.Estimator, g *rng.RNG) ([]float64, float64, error) {
	truth, err := (&core.ExactEstimator{Joins: w.Joins}).Params(nil)
	if err != nil {
		return nil, 0, err
	}
	p, err := est.Params(g)
	if err != nil {
		return nil, 0, err
	}
	errs := make([]float64, len(w.Joins))
	sum := 0.0
	for j := range w.Joins {
		errs[j] = p.RatioError(j, truth)
		sum += errs[j]
	}
	return errs, sum / float64(len(errs)), nil
}

// Fig4aRatioErrorUQ1 regenerates Fig 4a: the error of the |J_i|/|U|
// ratio estimate using histogram-based + EO on UQ1, vs overlap scale.
func Fig4aRatioErrorUQ1(o Options) (*Result, error) {
	return ratioErrorVsOverlap(o, "Fig4a", "UQ1", func(cfg tpch.Config) (*tpch.Workload, error) {
		return tpch.UQ1(cfg)
	})
}

// Fig4bRatioErrorUQ3 regenerates Fig 4b on UQ3 (splitting method).
func Fig4bRatioErrorUQ3(o Options) (*Result, error) {
	return ratioErrorVsOverlap(o, "Fig4b", "UQ3", tpch.UQ3)
}

func ratioErrorVsOverlap(o Options, fig, name string, build func(tpch.Config) (*tpch.Workload, error)) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Name:   "ratio error of histogram-based+EO on " + name,
		Figure: fig,
		Header: []string{"overlap_scale", "mean_ratio_err", "max_ratio_err"},
	}
	for _, p := range overlapSweep(o) {
		w, err := build(tpch.Config{SF: o.SF, Overlap: p, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		errs, mean, err := ratioErrors(w, &core.HistogramEstimator{
			Joins: w.Joins,
			Opts:  histest.Options{Sizes: histest.SizeEO},
		}, rng.New(o.Seed))
		if err != nil {
			return nil, err
		}
		max := 0.0
		for _, e := range errs {
			if e > max {
				max = e
			}
		}
		res.Add(f(p), f(mean), f(max))
	}
	return res, nil
}

// Fig4cEstimationRuntimeUQ1 regenerates Fig 4c: union-size estimation
// runtime, histogram-based vs FullJoin, on UQ1 vs overlap scale.
func Fig4cEstimationRuntimeUQ1(o Options) (*Result, error) {
	return estimationRuntime(o, "Fig4c", "UQ1", func(cfg tpch.Config) (*tpch.Workload, error) {
		return tpch.UQ1(cfg)
	})
}

// Fig4dEstimationRuntimeUQ3 regenerates Fig 4d on UQ3.
func Fig4dEstimationRuntimeUQ3(o Options) (*Result, error) {
	return estimationRuntime(o, "Fig4d", "UQ3", tpch.UQ3)
}

func estimationRuntime(o Options, fig, name string, build func(tpch.Config) (*tpch.Workload, error)) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Name:   "union size estimation runtime on " + name,
		Figure: fig,
		Note:   "histogram-based estimation vs FullJoin ground truth",
		Header: []string{"overlap_scale", "histogram_ms", "fulljoin_ms", "speedup"},
	}
	for _, p := range overlapSweep(o) {
		w, err := build(tpch.Config{SF: o.SF, Overlap: p, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		est, err := histest.New(w.Joins, histest.Options{Sizes: histest.SizeEO})
		if err != nil {
			return nil, err
		}
		if _, err := est.Estimate(); err != nil {
			return nil, err
		}
		histTime := time.Since(start)
		start = time.Now()
		if _, err := (&core.ExactEstimator{Joins: w.Joins}).Params(nil); err != nil {
			return nil, err
		}
		fullTime := time.Since(start)
		speedup := float64(fullTime) / math.Max(float64(histTime), 1)
		res.Add(f(p), ms(histTime), ms(fullTime), fmt.Sprintf("%.1fx", speedup))
	}
	return res, nil
}

// Fig5aRatioErrorMethods regenerates Fig 5a: ratio error of
// histogram-based+EO vs random-walk on UQ1, per join.
func Fig5aRatioErrorMethods(o Options) (*Result, error) {
	o = o.withDefaults()
	w, err := tpch.UQ1(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	truth, err := (&core.ExactEstimator{Joins: w.Joins}).Params(nil)
	if err != nil {
		return nil, err
	}
	hist, err := (&core.HistogramEstimator{
		Joins: w.Joins, Opts: histest.Options{Sizes: histest.SizeEO},
	}).Params(rng.New(o.Seed))
	if err != nil {
		return nil, err
	}
	walks := o.Samples
	if walks < 500 {
		walks = 500
	}
	rw, err := (&core.RandomWalkEstimator{
		Joins: w.Joins, Opts: walkest.Options{MaxWalks: walks, TargetRel: 0.02},
	}).Params(rng.New(o.Seed + 1))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "ratio error by estimation method on UQ1",
		Figure: "Fig5a",
		Header: []string{"join", "histogram_EO_err", "random_walk_err"},
	}
	for j := range w.Joins {
		res.Add(w.Joins[j].Name(), f(hist.RatioError(j, truth)), f(rw.RatioError(j, truth)))
	}
	return res, nil
}

// samplerConfig names one (warm-up, join-method) combination of Fig 5.
type samplerConfig struct {
	name   string
	method core.JoinMethod
	est    func(w *tpch.Workload) core.Estimator
}

func fig5Configs(walks int) []samplerConfig {
	return []samplerConfig{
		{"hist+EW", core.MethodEW, func(w *tpch.Workload) core.Estimator {
			return &core.HistogramEstimator{Joins: w.Joins, Opts: histest.Options{Sizes: histest.SizeEW}}
		}},
		{"hist+EO", core.MethodEO, func(w *tpch.Workload) core.Estimator {
			return &core.HistogramEstimator{Joins: w.Joins, Opts: histest.Options{Sizes: histest.SizeEO}}
		}},
		{"rw+EW", core.MethodEW, func(w *tpch.Workload) core.Estimator {
			return &core.RandomWalkEstimator{Joins: w.Joins, Opts: walkest.Options{MaxWalks: walks}}
		}},
	}
}

// runCover samples n tuples with Algorithm 1 under the given config and
// returns the run's stats (warm-up time included) and the sampling
// time.
func runCover(w *tpch.Workload, sc samplerConfig, n int, seed int64) (*core.Stats, time.Duration, error) {
	g := rng.New(seed)
	p, err := core.PrepareCover(w.Joins, core.CoverConfig{
		Method:    sc.method,
		Estimator: sc.est(w),
	}, g)
	if err != nil {
		return nil, 0, err
	}
	run := p.NewRun()
	start := time.Now()
	if _, err := run.Sample(n, g); err != nil {
		return nil, 0, err
	}
	d := time.Since(start)
	st := run.Stats()
	st.WarmupTime += p.WarmupTime()
	return st, d, nil
}

// Fig5bTimeVsScale regenerates Fig 5b: SetUnion sampling time vs data
// scale on UQ1 for each warm-up × join-method combination.
func Fig5bTimeVsScale(o Options) (*Result, error) {
	o = o.withDefaults()
	configs := fig5Configs(1000)
	res := &Result{
		Name:   "SetUnion sampling time vs data scale on UQ1",
		Figure: "Fig5b",
		Header: []string{"sf"},
	}
	for _, sc := range configs {
		res.Header = append(res.Header, sc.name+"_ms")
	}
	for _, sf := range scaleSweep(o) {
		w, err := tpch.UQ1(tpch.Config{SF: sf, Overlap: o.Overlap, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.2f", sf)}
		for _, sc := range configs {
			_, d, err := runCover(w, sc, o.Samples, o.Seed)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(d))
		}
		res.Add(row...)
	}
	return res, nil
}

// Fig5cTimeVsSamplesUQ1 regenerates Fig 5c (and 5d/5e for the other
// workloads): sampling runtime vs sample count.
func Fig5cTimeVsSamplesUQ1(o Options) (*Result, error) {
	return timeVsSamples(o, "Fig5c", func(cfg tpch.Config) (*tpch.Workload, error) { return tpch.UQ1(cfg) })
}

// Fig5dTimeVsSamplesUQ2 regenerates Fig 5d.
func Fig5dTimeVsSamplesUQ2(o Options) (*Result, error) {
	return timeVsSamples(o, "Fig5d", tpch.UQ2)
}

// Fig5eTimeVsSamplesUQ3 regenerates Fig 5e.
func Fig5eTimeVsSamplesUQ3(o Options) (*Result, error) {
	return timeVsSamples(o, "Fig5e", tpch.UQ3)
}

func timeVsSamples(o Options, fig string, build func(tpch.Config) (*tpch.Workload, error)) (*Result, error) {
	o = o.withDefaults()
	w, err := build(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	configs := fig5Configs(1000)
	res := &Result{
		Name:   "sampling time vs sample size on " + w.Name,
		Figure: fig,
		Header: []string{"samples"},
	}
	for _, sc := range configs {
		res.Header = append(res.Header, sc.name+"_ms")
	}
	for _, n := range sampleSweep(o) {
		row := []string{fmt.Sprintf("%d", n)}
		for _, sc := range configs {
			_, d, err := runCover(w, sc, n, o.Seed)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(d))
		}
		res.Add(row...)
	}
	return res, nil
}

// Fig5fBreakdownUQ1 regenerates Fig 5f (and 5g/5h): the time breakdown
// into parameter estimation, accepted answers, and rejected answers.
func Fig5fBreakdownUQ1(o Options) (*Result, error) {
	return breakdown(o, "Fig5f", func(cfg tpch.Config) (*tpch.Workload, error) { return tpch.UQ1(cfg) })
}

// Fig5gBreakdownUQ2 regenerates Fig 5g.
func Fig5gBreakdownUQ2(o Options) (*Result, error) {
	return breakdown(o, "Fig5g", tpch.UQ2)
}

// Fig5hBreakdownUQ3 regenerates Fig 5h.
func Fig5hBreakdownUQ3(o Options) (*Result, error) {
	return breakdown(o, "Fig5h", tpch.UQ3)
}

func breakdown(o Options, fig string, build func(tpch.Config) (*tpch.Workload, error)) (*Result, error) {
	o = o.withDefaults()
	w, err := build(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "time breakdown on " + w.Name,
		Figure: fig,
		Header: []string{"config", "estimation_ms", "accepted_ms", "rejected_ms", "dup_rejects", "join_rejects"},
	}
	for _, sc := range fig5Configs(1000) {
		st, _, err := runCover(w, sc, o.Samples, o.Seed)
		if err != nil {
			return nil, err
		}
		res.Add(sc.name, ms(st.WarmupTime), ms(st.AcceptTime), ms(st.RejectTime),
			fmt.Sprintf("%d", st.RejectedDup), fmt.Sprintf("%d", st.JoinRejects))
	}
	return res, nil
}

// Fig6aReuse regenerates Fig 6a: online sampling time with and without
// sample reuse, vs sample size.
func Fig6aReuse(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Name:   "online sampling with vs without sample reuse",
		Figure: "Fig6a",
		Header: []string{"workload", "samples", "with_reuse_ms", "without_reuse_ms"},
	}
	warmup := 1000
	if o.Quick {
		warmup = 200
	}
	builders := []func(tpch.Config) (*tpch.Workload, error){
		func(cfg tpch.Config) (*tpch.Workload, error) { return tpch.UQ1(cfg) },
		tpch.UQ2,
		tpch.UQ3,
	}
	for _, build := range builders {
		w, err := build(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		for _, n := range sampleSweep(o) {
			withReuse, _, err := runOnline(w, n, warmup, o.Seed)
			if err != nil {
				return nil, err
			}
			noReuse, _, err := runOnline(w, n, 0, o.Seed)
			if err != nil {
				return nil, err
			}
			res.Add(w.Name, fmt.Sprintf("%d", n), ms(withReuse), ms(noReuse))
		}
	}
	return res, nil
}

// onlineCallSize is the Sample call size of the Fig 6 runs. Stats split
// each call's clock over that call's own reuse/fresh attempt mix, so
// drawing in small calls is what lets Fig 6b tell the reuse phase (the
// first calls, while the pool lasts) from the regular phase.
const onlineCallSize = 64

// runOnline samples n tuples with Algorithm 2 on the single-stream run
// that owns the warm-up pool (§7 reuse), in onlineCallSize-tuple calls.
func runOnline(w *tpch.Workload, n, warmupWalks int, seed int64) (time.Duration, *core.Stats, error) {
	g := rng.New(seed)
	p, err := core.PrepareOnline(w.Joins, core.OnlineConfig{
		WarmupWalks: warmupWalks,
		Phi:         256,
	}, g)
	if err != nil {
		return 0, nil, err
	}
	run := p.NewReuseRun()
	start := time.Now()
	for left := n; left > 0; left -= onlineCallSize {
		if _, err := run.Sample(min(left, onlineCallSize), g); err != nil {
			return 0, nil, err
		}
	}
	return time.Since(start), run.Stats(), nil
}

// Fig6bPhaseCost regenerates Fig 6b: time per accepted sample in the
// regular phase vs the reuse phase of the online sampler.
func Fig6bPhaseCost(o Options) (*Result, error) {
	o = o.withDefaults()
	res := &Result{
		Name:   "per-sample cost: reuse phase vs regular phase",
		Figure: "Fig6b",
		Header: []string{"workload", "reuse_us_per_sample", "regular_us_per_sample", "reuse_accepted", "regular_accepted"},
	}
	warmup := 500
	if o.Quick {
		warmup = 100
	}
	builders := []func(tpch.Config) (*tpch.Workload, error){
		func(cfg tpch.Config) (*tpch.Workload, error) { return tpch.UQ1(cfg) },
		tpch.UQ2,
		tpch.UQ3,
	}
	for _, build := range builders {
		w, err := build(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		n := o.Samples * 2 // enough to drain the pool and enter the regular phase
		_, st, err := runOnline(w, n, warmup, o.Seed)
		if err != nil {
			return nil, err
		}
		regular := st.Accepted - st.ReuseAccepted
		reuseUS := 0.0
		if st.ReuseAccepted > 0 {
			reuseUS = float64(st.ReuseTime.Microseconds()) / float64(st.ReuseAccepted)
		}
		regUS := 0.0
		if regular > 0 {
			regUS = float64(st.RegularTime.Microseconds()) / float64(regular)
		}
		res.Add(w.Name, fmt.Sprintf("%.2f", reuseUS), fmt.Sprintf("%.2f", regUS),
			fmt.Sprintf("%d", st.ReuseAccepted), fmt.Sprintf("%d", regular))
	}
	return res, nil
}

// Thm2CostBound validates Theorem 2: the total number of subroutine
// draws for N samples stays within a constant factor of N + N log N.
func Thm2CostBound(o Options) (*Result, error) {
	o = o.withDefaults()
	w, err := tpch.UQ1(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "Theorem 2 cost bound: total draws vs N + N log N",
		Figure: "Thm2",
		Header: []string{"samples", "total_draws", "bound", "draws/bound"},
	}
	for _, n := range sampleSweep(o) {
		st, _, err := runCover(w, fig5Configs(1000)[0], n, o.Seed)
		if err != nil {
			return nil, err
		}
		bound := float64(n) + float64(n)*math.Log(float64(n))
		draws := float64(st.TotalDraws)
		res.Add(fmt.Sprintf("%d", n), fmt.Sprintf("%.0f", draws),
			fmt.Sprintf("%.0f", bound), f(draws/bound))
	}
	return res, nil
}
