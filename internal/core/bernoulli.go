package core

import (
	"fmt"

	"sampleunion/internal/join"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/rng"
)

// DisjointShared is the prepared state of Definition 1's disjoint-union
// sampler: the shared prepared state, warmed by the subroutine samplers'
// own size knowledge (samplerSizes), handing out DisjointSampler runs.
type DisjointShared struct{ prepared }

// PrepareDisjoint builds the shared state of a disjoint-union sampler
// whose joins sample with method. It runs no estimator and draws no
// randomness: in the disjoint union every join is its own cover, so the
// selection weights are the subroutine samplers' size estimates — exact
// sizes under EW, Olken bounds under EO, whose rejection rates
// renormalize exactly (an accepted draw lands on any particular result
// with probability 1/Σ_j bound_j, whatever its join). Each draw consumes
// one join selection and one subroutine attempt, so a seed's stream is
// fixed; the `disjoint` golden digest pins it.
func PrepareDisjoint(joins []*join.Join, method JoinMethod) (*DisjointShared, error) {
	base, err := newUnionBase(joins, method)
	if err != nil {
		return nil, err
	}
	if err := base.buildPending(); err != nil {
		return nil, err
	}
	return newDisjointShared(base)
}

// newDisjointShared warms a disjoint-union sampler over a base whose
// subroutine samplers are built: PrepareDisjoint's own, or — through
// PreparedSampler.Disjoint — the one a set-union sampler already warmed.
func newDisjointShared(base *unionBase) (*DisjointShared, error) {
	p := &DisjointShared{prepared{base: base, est: samplerSizes(base.samplers), runs: newRunPool()}}
	if err := p.warm(nil); err != nil {
		return nil, err
	}
	return p, nil
}

// samplerSizes is the disjoint union's warm-up: each join's size and
// cover are its subroutine sampler's SizeEstimate.
type samplerSizes []joinsample.Sampler

// Params implements Estimator.
func (s samplerSizes) Params(*rng.RNG) (*Params, error) {
	sizes := make([]float64, len(s))
	for i, js := range s {
		sizes[i] = js.SizeEstimate()
	}
	return NewParams(sizes, sizes), nil
}

// NewRun returns a sampling run over the shared prepared state, recycled
// or newly built, reset either way (see CoverShared.NewRun).
func (p *DisjointShared) NewRun() Run {
	s, _ := p.runs.Get().(*DisjointSampler)
	if s == nil {
		s = &DisjointSampler{scratch: p.base.newScratch()}
		s.draw = s.drawOne
	}
	s.reset(&p.prepared)
	return s
}

// DisjointSampler is one run of Definition 1's sampler: each returned
// tuple is a result of join j with probability 1/(|J_1| + ... + |J_n|),
// a value in k joins k times as likely.
type DisjointSampler struct {
	runState
	scratch drawScratch
}

// Release returns the run to its generation's pool (see Run.Release).
func (s *DisjointSampler) Release() { s.release(s) }

// drawOne selects a join proportionally to its size and makes exactly
// one subroutine attempt, committing it on success: under EO the bound
// weights renormalize through full reselection, so retrying within a
// join would bias the distribution.
func (s *DisjointSampler) drawOne(g *rng.RNG) error {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		j := s.prep.alias.Draw(g)
		got, tries := s.prep.base.samplers[j].SampleManyInto(s.scratch.many, s.scratch.rowOf, 1, g)
		s.stats.bookDraws(j, tries, got)
		if got > 0 {
			s.commit(j, s.scratch.out, 1, 0)
			return nil
		}
	}
	return fmt.Errorf("core: disjoint sampler made no progress after %d attempts", maxAttempts)
}

// BernoulliShared is the prepared state of the §3 union-trick sampler:
// the shared prepared state, warmed like Algorithm 1's, handing out
// BernoulliSampler runs.
type BernoulliShared struct{ prepared }

// PrepareBernoulli builds the shared state for the union trick and runs
// the warm-up exactly once, as PrepareCover does for the same cfg. A
// run's rounds span its calls: a call continues the round of joins the
// previous call on the run stopped in rather than starting a new one, so
// only a run's first call flips its coins from join 0. A seed's stream
// therefore matches a sampler that restarted the round on every call in
// a run's first call, and can differ from it only across consecutive
// calls on one run; no golden digest pins a Bernoulli stream.
func PrepareBernoulli(joins []*join.Join, cfg CoverConfig, g *rng.RNG) (*BernoulliShared, error) {
	p, err := prepareWith(joins, cfg, g)
	if err != nil {
		return nil, err
	}
	return &BernoulliShared{p}, nil
}

// NewRun returns a sampling run over the shared prepared state, recycled
// or newly built, reset either way (see CoverShared.NewRun).
func (p *BernoulliShared) NewRun() Run {
	s, _ := p.runs.Get().(*BernoulliSampler)
	if s == nil {
		s = &BernoulliSampler{scratch: p.base.newScratch()}
		s.draw = s.drawOne
	}
	s.reset(&p.prepared)
	s.next = 0
	return s
}

// BernoulliSampler is one run of the straightforward set-union sampler
// of §3 (the "union trick"): round after round every join J_j is
// selected independently with probability |J_j|/|U|, and a tuple drawn
// from J_j is kept only when J_j is the first join containing it,
// f(u) = j (runState.accept). Each value u is therefore returned with
// probability |J_{f(u)}|/|U| · 1/|J_{f(u)}| = 1/|U| per selection.
//
// Compared to Algorithm 1 the rejection ratio is high for heavily
// overlapping joins — the motivation for the non-Bernoulli cover
// selection (§3.1); the evaluation skips it for that reason, but it is
// implemented here as the framework's base case.
type BernoulliSampler struct {
	runState
	scratch drawScratch
	next    int // the join the current round continues at
}

// Release returns the run to its generation's pool (see Run.Release).
func (s *BernoulliSampler) Release() { s.release(s) }

// drawOne walks the rounds from where the run left off, flipping each
// join's coin and attempting one subroutine draw on a success, until a
// draw is accepted.
func (s *BernoulliSampler) drawOne(g *rng.RNG) error {
	p := s.prep.params
	for attempt := 0; attempt < maxAttempts; {
		j := s.next
		s.next = (j + 1) % len(p.JoinSizes)
		if !g.Bernoulli(p.JoinSizes[j] / p.UnionSize) {
			continue
		}
		attempt++
		got, tries := s.prep.base.samplers[j].SampleManyInto(s.scratch.many, s.scratch.rowOf, 1, g)
		s.stats.bookDraws(j, tries, got)
		if got > 0 && s.accept(j, s.scratch.out, -1) {
			s.commit(j, s.scratch.out, 1, 0)
			return nil
		}
	}
	return fmt.Errorf("core: Bernoulli sampler made no progress after %d attempts", maxAttempts)
}
