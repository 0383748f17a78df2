package core

import (
	"fmt"

	"sampleunion/internal/join"
	"sampleunion/internal/rng"
)

// CoverConfig configures the samplers that draw under warm-up
// parameters: the non-Bernoulli cover sampler (Algorithm 1) and the §3
// union trick (PrepareBernoulli).
type CoverConfig struct {
	// Method is the single-join subroutine (EW or EO).
	Method JoinMethod
	// Estimator supplies warm-up parameters; required. Its join-size
	// instantiation should match Method (EW sizes with MethodEW, EO
	// bounds with MethodEO) so that join-selection weights and the
	// subroutine's per-attempt normalization cancel; the public API's
	// Options wiring guarantees this pairing.
	Estimator Estimator
}

// CoverShared is the prepared state of Algorithm 1: the shared prepared
// state, warmed by the configured estimator, handing out CoverSampler
// runs.
type CoverShared struct{ prepared }

// PrepareCover builds the shared state for Algorithm 1 and runs the
// warm-up estimation exactly once, drawing warm-up randomness from g.
// The result is read-only: hand each sampling run its own RNG via
// NewRun.
func PrepareCover(joins []*join.Join, cfg CoverConfig, g *rng.RNG) (*CoverShared, error) {
	p, err := prepareWith(joins, cfg, g)
	if err != nil {
		return nil, err
	}
	return &CoverShared{p}, nil
}

// prepareWith builds cfg's subroutine samplers over joins and warms them
// with cfg's estimator: the prepared state of PrepareCover and
// PrepareBernoulli.
func prepareWith(joins []*join.Join, cfg CoverConfig, g *rng.RNG) (prepared, error) {
	if cfg.Estimator == nil {
		return prepared{}, fmt.Errorf("core: CoverConfig.Estimator is required")
	}
	base, err := newUnionBase(joins, cfg.Method)
	if err != nil {
		return prepared{}, err
	}
	p := prepared{base: base, est: cfg.Estimator, runs: newRunPool()}
	if err := p.warm(g); err != nil {
		return prepared{}, err
	}
	return p, nil
}

// Refresh implements PreparedSampler.
func (p *CoverShared) Refresh(g *rng.RNG) (PreparedSampler, bool, error) {
	np, changed, err := p.nextGen(g)
	if !changed {
		return p, false, err
	}
	return &CoverShared{np}, true, nil
}

// NewRun returns a sampling run over the shared prepared state with its
// own result buffer and Stats: a released run of this generation when
// there is one, a new one otherwise, reset either way. Runs are
// independent; any number may sample concurrently as long as each uses
// its own RNG.
func (p *CoverShared) NewRun() Run {
	s, _ := p.runs.Get().(*CoverSampler)
	if s == nil {
		s = &CoverSampler{scratch: p.base.newScratch()}
		s.draw = s.drawOne
	}
	s.reset(&p.prepared)
	return s
}

// CoverSampler is one sampling run of Algorithm 1: join selection
// proportional to cover sizes |J'_j|/|U|, and uniform sampling inside the
// selected join with redraws until the draw lands in the join's cover
// region — the values no earlier join contains, decided by membership
// (runState.accept) where the paper's lines 8-14 learn it from a record
// and revise. All mutable state (result buffer, stats) is per-run; the
// prepared state is shared and read-only. Each returned tuple has
// probability 1/|U| (Theorem 1), and a call buffers exactly the n tuples
// it returns.
//
// On the redraw semantics: Theorem 1's proof takes the probability of a
// value u given its cover join as 1/|J'_j|; redrawing within the
// selected join until acceptance is what realizes that conditional, so
// this implementation redraws within the join (counting every draw in
// Stats.TotalDraws, the Theorem 2 cost unit).
type CoverSampler struct {
	runState
	scratch drawScratch
}

// Release returns the run to its generation's pool (see Run.Release).
func (s *CoverSampler) Release() { s.release(s) }

// drawOne runs join selection and the accept rule until one tuple is
// appended to the result. The join-level acceptance loop runs
// devirtualized inside the subroutine (SampleManyInto, one call per
// union-level candidate) and lands in the run's scratch buffers; only an
// accepted tuple is copied into the arena.
func (s *CoverSampler) drawOne(g *rng.RNG) error {
	for selections := 0; ; selections++ {
		if selections > maxSelections {
			return fmt.Errorf("core: cover sampler made no progress after %d join selections", selections)
		}
		j := s.prep.alias.Draw(g)
		sampler := s.prep.base.samplers[j]
		budget := maxDrawsPerSelection
		for budget > 0 {
			got, tries := sampler.SampleManyInto(s.scratch.many, s.scratch.rowOf, budget, g)
			budget -= tries
			s.stats.bookDraws(j, tries, got)
			if got == 0 {
				break // budget exhausted or dead join: reselect
			}
			if s.accept(j, s.scratch.out, -1) {
				s.commit(j, s.scratch.out, 1, 0)
				return nil
			}
			// Union-level duplicate: redraw within the same join
			// (Theorem 1's conditional).
		}
	}
}
