package bench

import (
	"fmt"
	"time"

	"sampleunion/internal/core"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/rng"
	"sampleunion/internal/tpch"
	"sampleunion/internal/walkest"
)

// batchSweep picks the batch sizes of the batch experiment.
func batchSweep(o Options) []int {
	if o.Quick {
		return []int{1, 16, 256}
	}
	return []int{1, 4, 16, 64, 256, 1024}
}

// Batch measures what one n-tuple call amortizes against n one-tuple
// calls (BENCH_PR5.json): for each batch size n, the per-tuple cost of
//
//   - seq1: n independent Sample(1) calls on fresh runs of one
//     prepared sampler — the shape of n one-tuple requests;
//   - batch_nealias: one Sample(n) call with alias tables disabled
//     (threshold above every fan-out), isolating the engine-loop
//     amortization;
//   - batch_alias: one Sample(n) call with alias tables at the default
//     threshold.
//
// The speedup column is seq1/batch_alias: the acceptance bar is ≥ 2x
// at n = 1024.
func Batch(o Options) (*Result, error) {
	o = o.withDefaults()
	w, err := tpch.UQ1(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	mk := func(aliasThreshold int) (*core.CoverShared, error) {
		shared, err := core.PrepareCover(w.Joins, core.CoverConfig{
			Method:         core.MethodEW,
			AliasThreshold: aliasThreshold,
			Estimator: &core.RandomWalkEstimator{
				Joins: w.Joins,
				Opts:  walkest.Options{MaxWalks: 300},
			},
		}, core.NewRunRNG(o.Seed, 0))
		if err != nil {
			return nil, err
		}
		core.Prewarm(shared)
		return shared, nil
	}

	withAlias, err := mk(0) // engine default threshold
	if err != nil {
		return nil, err
	}
	noAlias, err := mk(joinsample.NeverAlias) // no fan-out qualifies
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:   "batch draw engine vs per-draw baseline (per-tuple cost)",
		Figure: "batch",
		Note:   "seq1 = n Sample(1) calls on fresh runs; batch = one Sample(n) call",
		Header: []string{"batch_n", "seq1_us_tuple", "batch_noalias_us_tuple", "batch_alias_us_tuple", "speedup"},
	}
	const rounds = 24
	for _, n := range batchSweep(o) {
		seq := perTuple(rounds, n, func(g *rng.RNG) error {
			for i := 0; i < n; i++ {
				// Fresh run + fresh derived stream per call: the shape a
				// session pays for every one-tuple Sample(1).
				run := withAlias.NewRun()
				if _, err := run.Sample(1, rng.New(g.Int63())); err != nil {
					return err
				}
			}
			return nil
		})
		noal := perTuple(rounds, n, func(g *rng.RNG) error {
			_, err := noAlias.NewRun().Sample(n, g)
			return err
		})
		al := perTuple(rounds, n, func(g *rng.RNG) error {
			_, err := withAlias.NewRun().Sample(n, g)
			return err
		})
		if seq.err != nil {
			return nil, seq.err
		}
		if noal.err != nil {
			return nil, noal.err
		}
		if al.err != nil {
			return nil, al.err
		}
		res.Add(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", seq.us),
			fmt.Sprintf("%.3f", noal.us),
			fmt.Sprintf("%.3f", al.us),
			fmt.Sprintf("%.2fx", seq.us/al.us))
	}
	return res, nil
}

type perTupleCost struct {
	us  float64
	err error
}

// perTuple runs f rounds times (one warm round discarded) and returns
// the best per-tuple microseconds — best-of insulates the sweep from
// scheduler noise the way testing.B's -count min does.
func perTuple(rounds, n int, f func(g *rng.RNG) error) perTupleCost {
	g := rng.New(7)
	best := 0.0
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if err := f(g); err != nil {
			return perTupleCost{err: err}
		}
		us := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
		if r == 0 {
			continue // warm round: lazy structures, cache warmth
		}
		if best == 0 || us < best {
			best = us
		}
	}
	return perTupleCost{us: best}
}
