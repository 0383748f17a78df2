package bench

import (
	"fmt"
	"runtime"
	"time"

	"sampleunion/internal/core"
	"sampleunion/internal/join"
	"sampleunion/internal/rng"
	"sampleunion/internal/tpch"
	"sampleunion/internal/walkest"
)

// shardSweep picks the core counts of the shards experiment: powers of
// two from 1 up to the machine's CPU count, always including at least
// one multi-shard point so the sharded engine is exercised even on a
// single-core host (where the curve is expected to be flat — the
// result's note records the physical core count for that reason).
func shardSweep(o Options) []int {
	if o.Quick {
		return []int{1, 2}
	}
	max := runtime.NumCPU()
	if max < 4 {
		max = 4
	}
	cores := []int{1}
	for c := 2; c <= max; c *= 2 {
		cores = append(cores, c)
	}
	if last := cores[len(cores)-1]; last < runtime.NumCPU() {
		cores = append(cores, runtime.NumCPU())
	}
	return cores
}

// Shards measures the shard-parallel engine's batch throughput against
// core count on TPC-H UQ1: for each swept count c, GOMAXPROCS is set
// to c, the union is partitioned into c shards (c = 1 keeps the
// single-shard engine — the baseline and the regression guard), and
// one warm prepared sampler serves repeated Sample(n) calls whose
// best per-tuple cost is reported. The speedup column is against the
// single-shard row on the same machine.
func Shards(o Options) (*Result, error) {
	o = o.withDefaults()
	sf := o.SF
	if !o.Quick && sf < 10 {
		sf = 10 // the scaling bar is measured at sf >= 10
	}
	w, err := tpch.UQ1(tpch.Config{SF: sf, Overlap: o.Overlap, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	n := 8192
	rounds := 12
	if o.Quick {
		n = 1024
		rounds = 6
	}
	factory := func(joins []*join.Join, g *rng.RNG) (core.PreparedSampler, error) {
		return core.PrepareCover(joins, core.CoverConfig{
			Method: core.MethodEW,
			Estimator: &core.RandomWalkEstimator{
				Joins: joins,
				Opts:  walkest.Options{MaxWalks: 300},
			},
		}, g)
	}
	res := &Result{
		Name:   "shard-parallel batch throughput vs core count (UQ1)",
		Figure: "shards",
		Note: fmt.Sprintf("sf=%g batch_n=%d; GOMAXPROCS set per row; machine has %d core(s)",
			sf, n, runtime.NumCPU()),
		Header: []string{"cores", "shards", "us_tuple", "tuples_per_s", "speedup_vs_1"},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	base := 0.0
	for _, c := range shardSweep(o) {
		runtime.GOMAXPROCS(c)
		var prepared core.PreparedSampler
		if c == 1 {
			prepared, err = factory(w.Joins, rng.New(core.DeriveSeed(o.Seed, 0)))
		} else {
			prepared, err = core.PrepareSharded(w.Joins, core.ShardedConfig{
				Shards:  c,
				Workers: c,
				Factory: factory,
			}, rng.New(core.DeriveSeed(o.Seed, 0)))
		}
		if err != nil {
			return nil, err
		}
		core.Prewarm(prepared)
		us, err := perTuple(rounds, n, func(g *rng.RNG) error {
			_, err := prepared.NewRun().Sample(n, g)
			return err
		})
		if err != nil {
			return nil, err
		}
		if c == 1 {
			base = us
		}
		res.Add(fmt.Sprintf("%d", c), fmt.Sprintf("%d", c),
			fmt.Sprintf("%.3f", us),
			fmt.Sprintf("%.0f", 1e6/us),
			fmt.Sprintf("%.2fx", base/us))
	}
	return res, nil
}

// perTuple runs f rounds times (one warm round discarded) and returns
// the best per-tuple microseconds — best-of insulates the sweep from
// scheduler noise the way testing.B's -count min does.
func perTuple(rounds, n int, f func(g *rng.RNG) error) (float64, error) {
	g := rng.New(7)
	best := 0.0
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if err := f(g); err != nil {
			return 0, err
		}
		us := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
		if r == 0 {
			continue // warm round: lazy structures, cache warmth
		}
		if best == 0 || us < best {
			best = us
		}
	}
	return best, nil
}
