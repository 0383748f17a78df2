package sampleunion

import (
	"sampleunion/internal/rng"
)

// Estimate is the warm-up parameter report: what the framework knows
// about the union before sampling.
type Estimate struct {
	// JoinSizes are the per-join size estimates |J_j| (exact under
	// WarmupExact, Horvitz–Thompson under WarmupRandomWalk, upper
	// bounds under WarmupHistogram+MethodEO).
	JoinSizes []float64
	// CoverSizes are the |J'_j| of §3.1: the share of each join not
	// covered by earlier joins. They sum to UnionSize.
	CoverSizes []float64
	// UnionSize is the estimated |J_1 ∪ ... ∪ J_n| (Eq. 1).
	UnionSize float64
}

// Estimate runs the selected warm-up and reports the framework
// parameters without sampling. A prepared Session caches this report;
// Session.Estimate returns it without re-estimating.
func (u *Union) Estimate(o Options) (*Estimate, error) {
	o, err := o.Canonical()
	if err != nil {
		return nil, err
	}
	p, err := estimatorFor(u.joins, o, o.WarmupWalks).Params(rng.New(o.Seed))
	if err != nil {
		return nil, err
	}
	return &Estimate{
		JoinSizes:  append([]float64(nil), p.JoinSizes...),
		CoverSizes: append([]float64(nil), p.Cover...),
		UnionSize:  p.UnionSize,
	}, nil
}

// SampleParallel draws n tuples using the given number of worker
// goroutines. It prepares a Session (one warm-up total, shared by every
// worker) and fans out over it: each worker draws one shard-sized
// batch (SampleSeeded) on its own decorrelated stream, so worker
// streams are uniform and independent, and hence so is their
// concatenation.
//
// SampleParallel is a prepare-then-call wrapper; callers issuing more
// than one query should Prepare once and use Session.SampleParallel.
func (u *Union) SampleParallel(n, workers int, o Options) ([]Tuple, error) {
	s, err := u.Prepare(o)
	if err != nil {
		return nil, err
	}
	return s.SampleParallel(n, workers)
}
