package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
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
// core count on TPC-H UQ1. At each swept count c, GOMAXPROCS is set to
// c and two engines draw n tuples per round. The unsharded row is c
// concurrent runs of one warm unsharded sampler, each Sample(n/c) on
// its own stream, which is what SampleParallel(n, c) and the wire's
// workers: c do. The sharded row (c > 1) partitions the union into c
// shards and serves one Sample(n) over c workers. Each row reports its
// best per-tuple cost, and the sharded row's speed-up is against the
// unsharded row at the same c, so both have the same cores to use.
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
		Note: fmt.Sprintf("sf=%g batch_n=%d; at c cores GOMAXPROCS = c, unsharded = c concurrent runs, sharded = c shards; machine has %d core(s)",
			sf, n, runtime.NumCPU()),
		Header: []string{"cores", "engine", "us_tuple", "tuples_per_s", "speedup_vs_unsharded"},
	}
	add := func(c int, engine string, us, base float64) {
		res.Add(fmt.Sprintf("%d", c), engine,
			fmt.Sprintf("%.3f", us),
			fmt.Sprintf("%.0f", 1e6/us),
			fmt.Sprintf("%.2fx", base/us))
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	unsharded, err := factory(w.Joins, rng.New(core.DeriveSeed(o.Seed, 0)))
	if err != nil {
		return nil, err
	}
	core.Prewarm(unsharded)
	for _, c := range shardSweep(o) {
		runtime.GOMAXPROCS(c)
		base, err := drawCost(unsharded, c, n, rounds, o.Seed)
		if err != nil {
			return nil, err
		}
		add(c, "unsharded", base, base)
		if c == 1 {
			continue // one shard is the unsharded engine
		}
		sharded, err := core.PrepareSharded(w.Joins, core.ShardedConfig{
			Shards:  c,
			Workers: c,
			Factory: factory,
		}, rng.New(core.DeriveSeed(o.Seed, 0)))
		if err != nil {
			return nil, err
		}
		core.Prewarm(sharded)
		us, err := drawCost(sharded, 1, n, rounds, o.Seed)
		if err != nil {
			return nil, err
		}
		add(c, "sharded", us, base)
	}
	return res, nil
}

// drawCost returns the best per-tuple microseconds over rounds rounds
// (the first, warm round discarded) of drawing n tuples from p as runs
// concurrent runs, each Sample(n/runs) on its own stream. Best-of
// insulates the sweep from scheduler noise the way testing.B's -count
// min does.
func drawCost(p core.PreparedSampler, runs, n, rounds int, seed int64) (float64, error) {
	streams := make([]*rng.RNG, runs)
	for k := range streams {
		streams[k] = rng.New(core.DeriveSeed(seed, int64(k+1)))
	}
	errs := make([]error, runs)
	best := 0.0
	for r := 0; r < rounds; r++ {
		start := time.Now()
		var wg sync.WaitGroup
		for k := range streams {
			count := n / runs
			if k == runs-1 {
				count = n - count*(runs-1)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[k] = p.NewRun().Sample(count, streams[k])
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return 0, err
		}
		us := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
		if r > 0 && (best == 0 || us < best) {
			best = us
		}
	}
	return best, nil
}
