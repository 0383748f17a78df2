package bench

import (
	"fmt"
	"runtime"
	"time"

	"sampleunion/internal/core"
	"sampleunion/internal/rng"
	"sampleunion/internal/tpch"
	"sampleunion/internal/walkest"
)

// measure runs f (which must perform n operations) and reports ns/op,
// allocs/op, and bytes/op the way testing.B's -benchmem does: from the
// runtime's allocation counters around the call.
func measure(n int, f func()) hotCost {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return hotCost{
		nsOp:     float64(elapsed.Nanoseconds()) / float64(n),
		allocsOp: int64(m1.Mallocs-m0.Mallocs) / int64(n),
		bytesOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / int64(n),
	}
}

// hotCost is one measured row of the hotpath experiment.
type hotCost struct {
	nsOp     float64
	allocsOp int64
	bytesOp  int64
}

// Hotpath measures the per-draw hot path in isolation: steady-state
// draw cost over a prepared, prewarmed union (cover sampler), the same
// with the exact-membership oracle, a single membership probe, and a
// disjoint-union draw. The allocs/op column is the record of the
// allocation-free draw-path refactor (see BENCH_PR2.json): draw rows
// target 1-2 allocations per returned tuple (the output clone and
// amortized buffer growth), the membership probe zero.
func Hotpath(o Options) (*Result, error) {
	o = o.withDefaults()
	n := o.Samples * 10
	w, err := tpch.UQ1(tpch.Config{SF: o.SF, Overlap: o.Overlap, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	mkCover := func(oracle bool) (*core.CoverShared, error) {
		shared, err := core.PrepareCover(w.Joins, core.CoverConfig{
			Method: core.MethodEW,
			Estimator: &core.RandomWalkEstimator{
				Joins: w.Joins,
				Opts:  walkest.Options{MaxWalks: 300},
			},
			Oracle: oracle,
		}, core.NewRunRNG(o.Seed, 0))
		if err != nil {
			return nil, err
		}
		core.Prewarm(shared)
		return shared, nil
	}

	res := &Result{
		Name:   "per-draw hot path cost (steady state, prepared and prewarmed)",
		Figure: "hotpath",
		Note:   "allocs/op on draw rows is allocations per returned tuple",
		Header: []string{"path", "ns_op", "allocs_op", "bytes_op"},
	}
	add := func(name string, c hotCost) {
		res.Add(name, fmt.Sprintf("%.1f", c.nsOp), fmt.Sprintf("%d", c.allocsOp), fmt.Sprintf("%d", c.bytesOp))
	}

	cover, err := mkCover(false)
	if err != nil {
		return nil, err
	}
	var sampleErr error
	run := cover.NewRun()
	g := rng.New(7)
	add("draw", measure(n, func() {
		if _, err := run.Sample(n, g); err != nil {
			sampleErr = err
		}
	}))

	oracleShared, err := mkCover(true)
	if err != nil {
		return nil, err
	}
	orun := oracleShared.NewRun()
	og := rng.New(7)
	add("draw-oracle", measure(n, func() {
		if _, err := orun.Sample(n, og); err != nil {
			sampleErr = err
		}
	}))

	probeJoin := w.Joins[0]
	probeTuples, err := cover.NewRun().Sample(1, rng.New(9))
	if err != nil {
		return nil, err
	}
	probe := probeTuples[0]
	schema := w.Joins[0].OutputSchema()
	add("membership-probe", measure(n, func() {
		for i := 0; i < n; i++ {
			probeJoin.ContainsAligned(probe, schema)
		}
	}))

	disjoint, err := core.PrepareDisjointFrom(cover)
	if err != nil {
		return nil, err
	}
	drun := disjoint.NewRun()
	dg := rng.New(7)
	add("draw-disjoint", measure(n, func() {
		if _, err := drun.Sample(n, dg); err != nil {
			sampleErr = err
		}
	}))

	if sampleErr != nil {
		return nil, sampleErr
	}
	return res, nil
}
