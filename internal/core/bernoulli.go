package core

import (
	"fmt"
	"sync"
	"time"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// DisjointConfig configures Definition 1's disjoint-union sampler.
type DisjointConfig struct {
	Method JoinMethod
}

// DisjointShared is the prepared state of Definition 1's disjoint-union
// sampler: the per-join subroutine samplers and the size-proportional
// selection table. It is immutable and safe to share between any number
// of concurrent runs created with NewRun.
type DisjointShared struct {
	base  *unionBase
	alias *rng.Alias

	// runs recycles released *DisjointSampler (see prepared.runs).
	runs *sync.Pool
}

// PrepareDisjoint builds the shared state of a disjoint-union sampler.
// Disjoint sampling needs no estimator warm-up: selection weights come
// from the subroutine samplers' own size knowledge.
func PrepareDisjoint(joins []*join.Join, cfg DisjointConfig) (*DisjointShared, error) {
	base, err := newUnionBase(joins, cfg.Method)
	if err != nil {
		return nil, err
	}
	base.buildPending()
	return newDisjointShared(base)
}

// newDisjointShared builds the disjoint-union sampler over a base whose
// subroutine samplers are built: PrepareDisjoint's own, or — through
// PreparedSampler.Disjoint — the one a set-union sampler already warmed.
func newDisjointShared(base *unionBase) (*DisjointShared, error) {
	weights := make([]float64, len(base.joins))
	for i, s := range base.samplers {
		weights[i] = s.SizeEstimate()
	}
	alias := rng.NewAlias(weights)
	if alias == nil {
		return nil, fmt.Errorf("core: all joins are empty")
	}
	return &DisjointShared{base: base, alias: alias, runs: newRunPool()}, nil
}

// NewRun returns a sampling run (its own Stats and scratch) over the
// shared prepared state: a released one when there is one, a new one
// otherwise, its counters zeroed either way.
func (p *DisjointShared) NewRun() *DisjointSampler {
	s, _ := p.runs.Get().(*DisjointSampler)
	if s == nil {
		s = &DisjointSampler{scratch: p.base.newScratch()}
	}
	s.shared = p
	s.stats.reset(len(p.base.joins))
	return s
}

// DisjointSampler is one run of Definition 1's sampler: a join is
// selected proportionally to its size instantiation and one tuple is
// drawn from it; under EW the selection weights are exact sizes, under
// EO they are Olken bounds whose rejection rates re-normalize exactly
// (an accepted draw lands on any particular result with probability
// 1/Σ_j bound_j regardless of join).
type DisjointSampler struct {
	runRNG
	shared  *DisjointShared
	scratch drawScratch
	stats   Stats
}

// Release returns the run to its prepared state's pool (see Run.Release).
func (s *DisjointSampler) Release() {
	p := s.shared
	s.shared = nil
	p.runs.Put(s)
}

// Stats returns the run's instrumentation.
func (s *DisjointSampler) Stats() *Stats { return &s.stats }

// Sample returns n independent tuples, each with probability
// 1/(|J_1| + ... + |J_n|), in the first join's output schema order.
// Every iteration selects a join and attempts exactly one subroutine
// draw: under EO the bound weights renormalize through full
// reselection, so retrying within a join would bias the distribution.
func (s *DisjointSampler) Sample(n int, g *rng.RNG) ([]relation.Tuple, error) {
	k := s.shared.base.ref.Len()
	flat := make([]relation.Value, 0, n*k)
	out := make([]relation.Tuple, 0, n)
	before := s.stats
	start := time.Now()
	for len(out) < n {
		j := s.shared.alias.Draw(g)
		got, tries := s.shared.base.samplers[j].SampleManyInto(s.scratch.many, s.scratch.rowOf, 1, g)
		s.stats.bookDraws(j, tries, got)
		if got == 0 {
			continue
		}
		off := len(flat)
		flat = s.shared.base.alignedAppend(j, s.scratch.out, flat)
		out = append(out, relation.Tuple(flat[off:len(flat):len(flat)]))
		s.stats.Accepted++
		s.stats.Joins[j].Accepted++
	}
	s.stats.bookBatchTime(&before, time.Since(start))
	return out, nil
}

// SampleView forwards to Sample: a disjoint run buffers nothing, so its
// batch is the caller's already.
func (s *DisjointSampler) SampleView(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.Sample(n, g)
}

// BernoulliConfig configures the §3 union-trick sampler.
type BernoulliConfig struct {
	Method    JoinMethod
	Estimator Estimator
}

// BernoulliSampler implements the straightforward set-union sampler of
// §3 (the "union trick"): at each iteration every join J_j is selected
// independently with probability |J_j|/|U|; a tuple drawn from J_j is
// kept only when J_j is the first join containing it, f(u) = j. Each
// value u is therefore returned with probability
// |J_{f(u)}|/|U| · 1/|J_{f(u)}| = 1/|U| per iteration.
//
// Compared to Algorithm 1 the rejection ratio is high for heavily
// overlapping joins — the motivation for the non-Bernoulli cover
// selection (§3.1); the evaluation skips it for that reason, but it is
// implemented here as the framework's base case.
type BernoulliSampler struct {
	base    *unionBase
	params  *Params
	scratch drawScratch
	stats   Stats
}

// NewBernoulliSampler builds a union-trick sampler and runs its
// estimator, drawing warm-up randomness from g; the cost is booked into
// the run's Stats.WarmupTime.
func NewBernoulliSampler(joins []*join.Join, cfg BernoulliConfig, g *rng.RNG) (*BernoulliSampler, error) {
	if cfg.Estimator == nil {
		return nil, fmt.Errorf("core: BernoulliConfig.Estimator is required")
	}
	base, err := newUnionBase(joins, cfg.Method)
	if err != nil {
		return nil, err
	}
	base.buildPending()
	start := time.Now()
	p, err := cfg.Estimator.Params(g)
	if err != nil {
		return nil, err
	}
	if p.UnionSize <= 0 {
		return nil, fmt.Errorf("core: estimated union size is zero")
	}
	s := &BernoulliSampler{base: base, params: p, scratch: base.newScratch()}
	s.stats.reset(len(joins))
	s.stats.WarmupTime = time.Since(start)
	return s, nil
}

// Params returns the warm-up parameters.
func (s *BernoulliSampler) Params() *Params { return s.params }

// Stats returns the run's instrumentation.
func (s *BernoulliSampler) Stats() *Stats { return &s.stats }

// Sample returns n tuples, each value with probability 1/|U| per
// iteration, in the first join's output schema order.
func (s *BernoulliSampler) Sample(n int, g *rng.RNG) ([]relation.Tuple, error) {
	k := s.base.ref.Len()
	flat := make([]relation.Value, 0, n*k)
	out := make([]relation.Tuple, 0, n)
	before := s.stats
	start := time.Now()
	for len(out) < n {
		for j := range s.base.joins {
			if len(out) >= n {
				break
			}
			p := s.params.JoinSizes[j] / s.params.UnionSize
			if !g.Bernoulli(p) {
				continue
			}
			got, tries := s.base.samplers[j].SampleManyInto(s.scratch.many, s.scratch.rowOf, 1, g)
			s.stats.bookDraws(j, tries, got)
			if got == 0 {
				continue
			}
			if s.base.owners.Owner(j, s.scratch.out) != j {
				s.stats.RejectedDup++
				continue
			}
			off := len(flat)
			flat = s.base.alignedAppend(j, s.scratch.out, flat)
			out = append(out, relation.Tuple(flat[off:len(flat):len(flat)]))
			s.stats.Accepted++
			s.stats.Joins[j].Accepted++
		}
	}
	s.stats.bookBatchTime(&before, time.Since(start))
	return out, nil
}

// SampleView forwards to Sample, like DisjointSampler's.
func (s *BernoulliSampler) SampleView(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.Sample(n, g)
}
