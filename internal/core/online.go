package core

import (
	"fmt"
	"math"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/walkest"
)

// OnlineConfig configures the online union sampler (Algorithm 2).
type OnlineConfig struct {
	// WarmupWalks > 0 runs exactly that many wander-join walks per join
	// before sampling (OnlineEstimator): their estimates are the starting
	// parameters and their samples the reuse pool (the paper's
	// "random-walk with reuse"). <= 0 starts from histogram parameters
	// and an empty walk estimator and refines purely online (the
	// no-warm-up variant of §4's closing remark).
	WarmupWalks int
	// Phi is the backtrack period: a parameter update and backtracking
	// pass runs every Phi recorded probabilities (line 18). Values <= 0
	// default to 64.
	Phi int
	// Gamma is the target confidence level; once reached, parameter
	// updates stop (line 18). Values <= 0 default to 0.9.
	Gamma float64
}

// OnlineShared is the prepared state of Algorithm 2: the shared prepared
// state, warmed by OnlineEstimator, run exactly once. The master walk
// estimator is frozen after warm-up; each run handed out by NewRun starts
// from its own copy of the Horvitz–Thompson size and cover estimates and
// walks afresh into its own scratch, retaining nothing. It does not get the
// walks the warm-up retained: handing the same tuples to several runs
// would correlate streams that must be independent. The §7 sample-reuse
// optimization belongs to a single stream: NewReuseRun hands that pool to
// the one run that owns it.
type OnlineShared struct {
	prepared
	phi   int
	gamma float64
}

// OnlineEstimator is Algorithm 2's warm-up: exactly walks wander-join
// walks per join — the random-walk warm-up of Algorithm 1 with the walk
// floor raised to the budget, so §6.1's early stop never fires — or, for
// walks <= 0, histogram parameters alone (§5: cheap to calculate, refined
// on the fly).
func OnlineEstimator(joins []*join.Join, walks int) Estimator {
	if walks <= 0 {
		return &HistogramEstimator{Joins: joins}
	}
	return &RandomWalkEstimator{Joins: joins, Opts: walkest.Options{MaxWalks: walks, MinWalks: walks}}
}

// PrepareOnline builds the shared state for Algorithm 2 and runs the
// warm-up (OnlineEstimator) exactly once, drawing warm-up randomness
// from g.
func PrepareOnline(joins []*join.Join, cfg OnlineConfig, g *rng.RNG) (*OnlineShared, error) {
	base, err := newUnionBase(joins, MethodEO)
	if err != nil {
		return nil, err
	}
	p := prepared{base: base, est: OnlineEstimator(joins, cfg.WarmupWalks), runs: newRunPool()}
	if err := p.warm(g); err != nil {
		return nil, err
	}
	phi, gamma := cfg.Phi, cfg.Gamma
	if phi <= 0 {
		phi = 64
	}
	if gamma <= 0 {
		gamma = 0.9
	}
	return newOnlineShared(p, phi, gamma), nil
}

// newOnlineShared wraps a warmed generation. A warm-up that walked
// nothing retains no walk estimator, so its runs refine from an empty one
// (walkest.New fails only on no joins, which newUnionBase refused).
func newOnlineShared(p prepared, phi int, gamma float64) *OnlineShared {
	if p.walker == nil {
		p.walker, _ = walkest.New(p.base.joins, walkest.Options{})
	}
	return &OnlineShared{p, phi, gamma}
}

// Refresh implements PreparedSampler.
func (p *OnlineShared) Refresh(g *rng.RNG) (PreparedSampler, bool, error) {
	np, changed, err := p.nextGen(g)
	if !changed {
		return p, false, err
	}
	return newOnlineShared(np, p.phi, p.gamma), true, nil
}

// NewRun returns a sampling run over the shared warm-up with its own
// copy of the walk estimator's running estimates (pool excluded, see
// the type comment), result buffer, and Stats: a released run of
// this generation when there is one, a new one otherwise, reset either
// way. Runs are independent and reproducible from their RNG; any number
// may sample concurrently as long as each uses its own RNG.
func (p *OnlineShared) NewRun() Run {
	s, _ := p.runs.Get().(*OnlineSampler)
	if s == nil {
		s = &OnlineSampler{walks: new(walkest.Estimator), scratch: make(relation.Tuple, p.base.ref.Len())}
		s.draw = s.drawOne
	}
	s.reset(p)
	return s
}

// NewReuseRun returns the single-stream run of §7: like NewRun, but the
// run keeps the warm-up sample pool and draws from it (with the
// 1/(p(t)·|J_j|) acceptance correction) before walking afresh. The pool
// is the prepared state's one set of warm-up tuples, so at most one
// reuse run per prepared state yields an independent stream. It is
// NewRun with the estimator swapped for a full clone; the estimates
// NewRun copied first are a few words, paid once per prepared state,
// and not worth a second constructor.
func (p *OnlineShared) NewReuseRun() *OnlineSampler {
	s := p.NewRun().(*OnlineSampler)
	s.walks = p.walker.Clone()
	return s
}

// OnlineSampler is one run of Algorithm 2: it starts from the shared
// warm-up parameters, samples joins with wander-join walks whose draws
// double as Horvitz–Thompson observations — one at a time: each updates
// the estimates the next draw samples under — and every Phi recorded
// probabilities re-estimates parameters and backtracks previously
// accepted, not yet returned tuples to the new distribution (§7), until
// confidence Gamma is reached. A reuse run first draws the warm-up's
// retained walks, with the 1/(p(t)·|J_j|) acceptance correction (line 8).
// All mutable state — the walk estimator copy, parameters under
// refinement, the walk scratch, the result buffer, stats — is per-run.
type OnlineSampler struct {
	runState
	shared   *OnlineShared
	walks    *walkest.Estimator
	params   *Params
	alias    *rng.Alias
	recorded int
	conf     float64        // the walk estimator's confidence level as of the last backtrack
	scratch  relation.Tuple // where a fresh walk or a pool sample lands; only an accepted one is copied, into the arena
}

// reset adopts the shared warm-up into the run and starts it over:
// parameters and alias by reference (replaced, never mutated, on
// refinement), the walk estimates copied into the estimator the run
// already owns (they mutate with every draw).
func (s *OnlineSampler) reset(p *OnlineShared) {
	s.runState.reset(&p.prepared)
	s.shared = p
	s.walks.CopyEstimates(p.walker)
	s.params, s.alias = p.params, p.alias
	s.recorded, s.conf = 0, 0
}

// Release returns the run to its generation's pool (see Run.Release).
func (s *OnlineSampler) Release() {
	s.shared, s.params, s.alias = nil, nil, nil
	s.release(s)
}

// refreshParams rebuilds Params from the run's walk estimator once every
// join has observations, keeping the current values until then.
func (s *OnlineSampler) refreshParams() error {
	for _, je := range s.walks.JoinEstimates() {
		if je.Walks() == 0 {
			return nil
		}
	}
	s.params = paramsFromWalks(s.walks)
	s.alias = rng.NewAlias(s.params.Cover)
	if s.alias == nil {
		return fmt.Errorf("core: refreshed cover is all-zero")
	}
	return nil
}

// Params returns the run's current parameters.
func (s *OnlineSampler) Params() *Params { return s.params }

// Stats returns the run's instrumentation. Per-join CoverRelHalfWidth
// reflects the run's current walk state at the time of the call.
func (s *OnlineSampler) Stats() *Stats {
	for j, je := range s.walks.JoinEstimates() {
		s.stats.Joins[j].CoverRelHalfWidth = je.CoverRelHalfWidth(s.walks.Z())
	}
	return &s.stats
}

// drawOne selects a join by cover weight and retries within it until at
// least one instance of a tuple is accepted, then runs the backtracking
// check.
func (s *OnlineSampler) drawOne(g *rng.RNG) error {
	for selections := 0; ; selections++ {
		if selections > maxSelections {
			return fmt.Errorf("core: online sampler made no progress after %d selections", selections)
		}
		j := s.alias.Draw(g)
		for attempt := 0; attempt < maxDrawsPerSelection; attempt++ {
			sm, mult, reuse := s.candidate(j, g)
			if mult == 0 {
				continue
			}
			if s.accept(j, s.scratch, sm.Owner) {
				// Commit under the inclusion probability of the parameters
				// in force, for backtracking to thin by.
				s.commit(j, s.scratch, mult, s.inclusionProb(j))
				if reuse {
					s.stats.ReuseAccepted++
				}
				return s.maybeBacktrack(g)
			}
			if reuse {
				s.stats.ReuseRejectedDup++
			}
		}
	}
}

// candidate produces one tuple of join j, in the run's scratch, with a
// multiplicity (zero: none this attempt): from the reuse pool while the
// run holds one (line 8; NewReuseRun), otherwise by a fresh wander-join
// walk. Both paths apply the p(t)-correction so that each value of J_j
// is produced with equal expected multiplicity — uniform within the join.
// While the run refines its parameters a fresh walk is probed once for its
// owner f(t), for the running estimates, and that owner decides acceptance
// too; after that nothing reads the estimates, so the walk probes and
// folds in nothing and accept's owner scan is the only probe — as for a
// pool sample.
func (s *OnlineSampler) candidate(j int, g *rng.RNG) (sm walkest.Sample, mult int, reuse bool) {
	je := s.walks.JoinEstimates()[j]
	size := s.params.JoinSizes[j]
	s.stats.Joins[j].Draws++
	if pool := je.Samples(); len(pool) > 0 {
		sm = je.TakeSample(g.Intn(len(pool)), s.scratch) // without replacement (line 8)
		sm.Owner = -1
		// Acceptance ratio: the pool's composition is proportional to
		// p(t) and the acceptance proportional to 1/p(t), so any
		// constant scale preserves per-value uniformity; 1/(p·|J|)
		// keeps the ratio near one. This deviates from Algorithm 2 on
		// purpose: the paper's l·/(p·|J|) scale inflates the
		// multiplicity of every accepted tuple by the pool size.
		if mult = s.instances(1/(sm.P*size), g); mult == 0 {
			s.stats.ReuseRejected++
		}
		return sm, mult, true
	}
	s.stats.TotalDraws++
	sm, ok := s.walks.WalkJoin(j, s.scratch, s.conf < s.shared.gamma, g)
	s.recorded++
	if ok {
		mult = s.instances(1/(sm.P*size), g)
	}
	if mult == 0 {
		s.stats.JoinRejects++
		s.stats.Joins[j].Rejected++
	}
	return sm, mult, false
}

// instances converts an acceptance ratio (which may exceed 1, §7's
// multi-instance system) into an instance count with expectation R.
func (s *OnlineSampler) instances(r float64, g *rng.RNG) int {
	if r <= 0 || math.IsInf(r, 1) || math.IsNaN(r) {
		return 0
	}
	k := int(r)
	if g.Bernoulli(r - float64(k)) {
		k++
	}
	return k
}

// inclusionProb is the per-draw probability a value of join j enters
// the result under the current parameters: (|J'_j|/|U|) · (1/|J_j|).
func (s *OnlineSampler) inclusionProb(j int) float64 {
	if s.params.UnionSize <= 0 || s.params.JoinSizes[j] <= 0 {
		return 0
	}
	return s.params.Cover[j] / s.params.UnionSize / s.params.JoinSizes[j]
}

// maybeBacktrack runs the §7 parameter update and backtracking pass
// every Phi recorded probabilities while confidence is below Gamma.
func (s *OnlineSampler) maybeBacktrack(g *rng.RNG) error {
	if s.recorded < s.shared.phi || s.conf >= s.shared.gamma {
		return nil
	}
	s.recorded = 0
	s.stats.Backtracks++
	if err := s.refreshParams(); err != nil {
		return err
	}
	s.conf = s.walks.Confidence(s.walks.Z())
	// Backtrack: thin every previously accepted tuple to the new
	// inclusion probability (keep with min(1, new/old)).
	kept := s.result[:0]
	for _, e := range s.result {
		newProb := s.inclusionProb(e.join)
		keep := 1.0
		if e.prob > 0 && newProb < e.prob {
			keep = newProb / e.prob
		}
		if g.Bernoulli(keep) {
			if newProb < e.prob {
				e.prob = newProb
			}
			kept = append(kept, e)
		} else {
			s.stats.BacktrackDropped++
		}
	}
	s.result = kept
	return nil
}
