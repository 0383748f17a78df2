package core

import (
	"sync"
	"testing"

	"sampleunion/internal/rng"
)

// TestConcurrentFreshOracleRuns hits the membership tables' first-use
// path from many concurrent session streams at once: the prepared
// sampler is deliberately NOT prewarmed, so the very first membership
// probes of the accept rule race to build the per-join tables. Run under -race
// this pins the documented hazard fixed in this refactor ("Contains ...
// is not safe for concurrent first use"): the build must happen exactly
// once behind the atomic publish, and every stream must still see exact
// membership.
func TestConcurrentFreshOracleRuns(t *testing.T) {
	joins := fixtureJoins(t)
	shared, err := PrepareCover(joins, CoverConfig{
		Method:    MethodEO,
		Estimator: &ExactEstimator{Joins: joins},
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// No Prewarm on purpose: membership tables must build lazily under
	// concurrency.
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run := shared.NewRun()
			out, err := run.Sample(50, rng.New(int64(100+w)))
			if err == nil && len(out) != 50 {
				err = errShort
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short sample" }

// TestConcurrentFreshDisjointRuns covers the same first-use window for
// the disjoint sampler's scratch/draw path over a fresh, unprewarmed
// base.
func TestConcurrentFreshDisjointRuns(t *testing.T) {
	joins := fixtureJoins(t)
	shared, err := PrepareDisjoint(joins, MethodEO)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 8
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = shared.NewRun().Sample(50, rng.New(int64(200+w)))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}
