package core

import (
	"fmt"
	"sync"
	"time"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/tune"
)

// CoverConfig configures the non-Bernoulli cover sampler (Algorithm 1).
type CoverConfig struct {
	// Method is the single-join subroutine (EW or EO).
	Method JoinMethod
	// Estimator supplies warm-up parameters; required. Its join-size
	// instantiation should match Method (EW sizes with MethodEW, EO
	// bounds with MethodEO) so that join-selection weights and the
	// subroutine's per-attempt normalization cancel; the public API's
	// Options wiring guarantees this pairing.
	Estimator Estimator
	// Oracle switches the value-to-join assignment from the dynamic
	// orig_join record (the paper's Algorithm 1, lines 8-13) to exact
	// membership tests f(u) = min{i : u ∈ J_i}. The oracle needs data
	// access but makes uniformity exact from the first sample; the
	// record converges to it as values are re-drawn.
	Oracle bool
	// MaxDrawsPerSelection caps subroutine draws per join selection
	// before reselecting a join (guards against a join whose cover
	// region is empty but whose estimated cover size is positive).
	// Values <= 0 default to 256 — or, with a Tuner, to the plan's cap.
	MaxDrawsPerSelection int
	// AliasThreshold is the minimum weighted-row fan-out at which EW
	// draws build O(1) alias tables (joinsample.NewEWAlias).
	// <= 0 selects joinsample.DefaultAliasThreshold;
	// joinsample.NeverAlias disables alias tables. With a Tuner the
	// plan sets thresholds per join and this field is ignored.
	AliasThreshold int
	// Tuner, when non-nil, re-plans per-join decisions at every warm-up
	// (Prepare and Refresh): the subroutine per join, alias thresholds,
	// exact-count escalation for wide tree-join estimates, extra walks
	// for wide cyclic ones, and the batch slice cap. Method then only
	// names the starting point; the plan overrides it per join. The
	// controller also accumulates rejection feedback between warm-ups
	// (fed by the session layer) and folds it into the next plan.
	Tuner *tune.Controller
}

// resultEntry is one buffered sample: the arena offset of the tuple's
// value span plus the value's dense record handle (KeyCounter insertion
// rank), which identifies the tuple's value for revision removal
// exactly as the old string key did. The tuple itself lives in the
// run's arena — buffering a sample allocates nothing.
type resultEntry struct {
	key int
	off int // start of the tuple's span in the run's arena
}

// CoverShared is the prepared state of Algorithm 1: the per-join
// subroutine samplers, the warm-up parameters, and the join-selection
// alias table. After warm-up it is immutable and therefore safe to
// share between any number of concurrent runs created with NewRun —
// the split that lets one expensive warm-up serve many cheap draws.
type CoverShared struct {
	base       *unionBase
	cfg        CoverConfig
	params     *Params
	alias      *rng.Alias
	maxDraw    int
	walkVar    []float64 // per-join relative half-widths after warm-up
	warmupTime time.Duration
	refresh    RefreshStats // what the Refresh that built this state did

	// runs recycles released *CoverSampler (see newRunPool). It belongs to
	// this generation: a Refresh publishes a new CoverShared with an empty
	// pool, so a run never crosses generations.
	runs *sync.Pool
}

// PrepareCover builds the shared state for Algorithm 1 and runs the
// warm-up estimation exactly once, drawing warm-up randomness from g.
// The result is read-only: hand each sampling run its own RNG via
// NewRun.
func PrepareCover(joins []*join.Join, cfg CoverConfig, g *rng.RNG) (*CoverShared, error) {
	if cfg.Estimator == nil {
		return nil, fmt.Errorf("core: CoverConfig.Estimator is required")
	}
	// With a tuner the subroutine samplers are deferred to warm time:
	// the plan decides their methods, so building them here would build
	// a provisional set only to discard it.
	base, err := newUnionBase(joins, uniformJoinConfigs(len(joins), cfg.Method, cfg.AliasThreshold), cfg.Tuner != nil)
	if err != nil {
		return nil, err
	}
	maxDraw := cfg.MaxDrawsPerSelection
	if maxDraw <= 0 {
		maxDraw = 256
	}
	p := &CoverShared{base: base, cfg: cfg, maxDraw: maxDraw, runs: newRunPool()}
	if err := p.warm(g); err != nil {
		return nil, err
	}
	return p, nil
}

// warm runs the estimator and prepares the join-selection distribution
// (lines 1-2 of Algorithm 1). It runs exactly once per prepared state
// (PrepareCover or Refresh), before the state is published to runs.
func (p *CoverShared) warm(g *rng.RNG) error {
	start := time.Now()
	params, err := p.cfg.Estimator.Params(g)
	if err != nil {
		return err
	}
	if p.cfg.Tuner != nil {
		if params, err = p.retune(params, g); err != nil {
			return err
		}
	}
	p.params = params
	p.alias = rng.NewAlias(params.Cover)
	if w := tuneWalker(p.cfg.Estimator); w != nil {
		p.walkVar = make([]float64, len(p.base.joins))
		for i, je := range w.JoinEstimates() {
			p.walkVar[i] = je.RelHalfWidth(w.Z())
		}
	}
	p.warmupTime = time.Since(start)
	if p.alias == nil {
		return ErrEmptyUnion
	}
	return nil
}

// retune runs the adaptive re-plan at a warm-up boundary: gather the
// planner inputs from the just-finished estimation, build the plan
// (folding in any rejection feedback the controller accumulated),
// apply its estimation escalations, and install its per-join
// subroutine configs. Deferred or dirty samplers build here, exactly
// once, under the plan.
func (p *CoverShared) retune(params *Params, g *rng.RNG) (*Params, error) {
	walker := tuneWalker(p.cfg.Estimator)
	_, exact := p.cfg.Estimator.(*ExactEstimator)
	stats := gatherTuneStats(p.base.joins, params, walker, exact)
	plan := p.cfg.Tuner.Replan(stats)
	params, _, err := applyPlanEstimates(p.base, plan, params, walker, g)
	if err != nil {
		return nil, err
	}
	p.base.applyJoinConfigs(planJoinConfigs(plan))
	if p.cfg.MaxDrawsPerSelection <= 0 {
		p.maxDraw = plan.MaxDrawsPerSelection
	}
	return params, nil
}

// Refresh returns a CoverShared reconciled with the current data:
// dirty joins reconcile their residuals and rebuild their subroutine
// samplers from the ones they replace (clean joins are shared), and the
// estimator re-runs over the incrementally maintained indexes and
// membership tables — a random-walk estimator under walkest's refresh
// rule, so only dirty joins walk again. With a Tuner, a Refresh is also
// a re-plan boundary: it rebuilds even over clean data when the
// controller's rejection trigger fired, and dirty joins defer their
// sampler rebuild to the plan. The receiver is untouched; in-flight
// runs keep their snapshot.
func (p *CoverShared) Refresh(g *rng.RNG) (PreparedSampler, bool, error) {
	nb, dirty, changed := p.base.refreshedLazy()
	if !changed {
		if p.cfg.Tuner == nil || !p.cfg.Tuner.NeedsReplan() {
			return p, false, nil
		}
		nb = p.base.clone()
	}
	if p.cfg.Tuner == nil {
		nb.applyJoinConfigs(nb.cfgs)
	}
	np := &CoverShared{base: nb, cfg: p.cfg, maxDraw: p.maxDraw, runs: newRunPool()}
	np.cfg.Estimator, np.refresh.Reprobed = refreshedEstimator(p.cfg.Estimator, dirty)
	dropDirtyFeedback(p.cfg.Tuner, dirty)
	if err := np.warm(g); err != nil {
		return nil, false, err
	}
	nb.patchStats(dirty, &np.refresh)
	np.refresh.Walks = walksRun(tuneWalker(p.cfg.Estimator), tuneWalker(np.cfg.Estimator), dirty)
	return np, true, nil
}

// Params returns the warm-up parameters.
func (p *CoverShared) Params() *Params { return p.params }

// WarmupTime reports how long the one-time warm-up took.
func (p *CoverShared) WarmupTime() time.Duration { return p.warmupTime }

// NewRun returns a sampling run over the shared prepared state with its
// own value-to-join record, result buffer, and Stats: a released run of
// this generation when there is one, a new one otherwise, reset either
// way. Runs are independent; any number may sample concurrently as long
// as each uses its own RNG.
func (p *CoverShared) NewRun() Run {
	s, _ := p.runs.Get().(*CoverSampler)
	if s == nil {
		s = &CoverSampler{record: p.base.recordKeys(), scratch: p.base.newScratch()}
	}
	s.shared = p
	s.reset()
	return s
}

func (p *CoverShared) unionBase() *unionBase { return p.base }

// CoverSampler is one sampling run of Algorithm 1: join selection
// proportional to cover sizes |J'_j|/|U|, uniform sampling inside the
// selected join with redraws until the draw lands in the join's cover
// region, and revision when a value turns out to belong to an earlier
// join. All mutable state (record, result buffer, stats) is per-run;
// the prepared state is shared and read-only.
//
// On the redraw semantics: Theorem 1's proof takes the probability of a
// value u given its cover join as 1/|J'_j|; redrawing within the
// selected join until acceptance is what realizes that conditional, so
// this implementation redraws within the join (counting every draw in
// Stats.TotalDraws, the Theorem 2 cost unit).
type CoverSampler struct {
	runRNG
	shared  *CoverShared
	record  *relation.KeyCounter // value (ref order) -> assigned join
	scratch drawScratch
	result  []resultEntry
	arena   []relation.Value // backing store of buffered samples
	stats   Stats
}

// reset starts the run over: record and buffers emptied with their
// storage kept, counters zeroed. Nothing a later draw decides can depend
// on what the storage held — the record answers only through Lookup/At,
// and its handles restart at 0.
func (s *CoverSampler) reset() {
	s.record.Reset()
	s.result, s.arena = s.result[:0], s.arena[:0]
	s.stats.reset(len(s.shared.base.joins))
	for i, v := range s.shared.walkVar {
		s.stats.Joins[i].WalkVariance = v
	}
}

// Release returns the run to its generation's pool (see Run.Release).
func (s *CoverSampler) Release() {
	p := s.shared
	s.shared = nil
	if p.base.poolable(s.arena, s.record) {
		p.runs.Put(s)
	}
}

// Params returns the shared warm-up parameters.
func (s *CoverSampler) Params() *Params { return s.shared.params }

// Stats returns the run's instrumentation.
func (s *CoverSampler) Stats() *Stats { return &s.stats }

// Sample returns n tuples drawn with replacement from the set union,
// each with probability 1/|U| (Theorem 1). Tuples are in the first
// join's output schema order. Consecutive calls continue the stream:
// buffered tuples left by earlier calls are served first, and returned
// tuples are final (a later revision only affects tuples not yet
// returned), so Sample can be called repeatedly for more data. Join
// selection stays per-tuple — batching it across tuples would correlate
// samples that must be independent — while the result buffer, the arena
// and the record are sized for the batch once per call and the wall
// clock is read once per call (bookBatchTime).
func (s *CoverSampler) Sample(n int, g *rng.RNG) ([]relation.Tuple, error) {
	s.result = growEntries(s.result, n)
	s.arena = growArena(s.arena, (n-len(s.result))*s.shared.base.ref.Len())
	s.shared.base.reserveRecord(s.record, n-len(s.result))
	before := s.stats
	start := time.Now()
	for len(s.result) < n {
		if err := s.drawOne(g); err != nil {
			return nil, err
		}
	}
	s.stats.bookBatchTime(&before, time.Since(start))
	return s.serveResult(n), nil
}

// SampleBatch forwards to Sample.
//
// Deprecated: Sample is the batch engine; the name stays for callers
// compiled against it.
func (s *CoverSampler) SampleBatch(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.Sample(n, g)
}

// serveResult copies the first n buffered samples out over one flat
// backing (two allocations for the whole batch) and compacts the arena
// behind the remaining entries.
func (s *CoverSampler) serveResult(n int) []relation.Tuple {
	k := s.shared.base.ref.Len()
	out := serveFlat(s.arena, n, k, func(i int) int { return s.result[i].off })
	s.result = s.result[:copy(s.result, s.result[n:])]
	// Entry offsets are strictly increasing (each accepted draw appends
	// its own span), so the m-th remaining entry's span starts at or
	// after m*k and the forward copy never overruns its source.
	w := 0
	for i := range s.result {
		e := &s.result[i]
		if e.off != w {
			copy(s.arena[w:w+k], s.arena[e.off:e.off+k])
			e.off = w
		}
		w += k
	}
	s.arena = s.arena[:w]
	return out
}

// drawOne runs join selection and the accept/reject/revise logic until
// one tuple is appended to the result. The join-level acceptance loop
// runs devirtualized inside the subroutine (SampleManyInto, one call
// per union-level candidate) and lands in the run's scratch buffers;
// only an accepted tuple is copied into the arena.
func (s *CoverSampler) drawOne(g *rng.RNG) error {
	for selections := 0; ; selections++ {
		if selections > 64 {
			return fmt.Errorf("core: cover sampler made no progress after %d join selections", selections)
		}
		j := s.shared.alias.Draw(g)
		sampler := s.shared.base.samplers[j]
		budget := s.shared.maxDraw
		for budget > 0 {
			got, tries := sampler.SampleManyInto(s.scratch.many, s.scratch.rowOf, budget, g)
			budget -= tries
			s.stats.bookDraws(j, tries, got)
			if got == 0 {
				break // budget exhausted or dead join: reselect
			}
			if s.acceptDraw(j, s.scratch.out) {
				s.stats.Accepted++
				s.stats.Joins[j].Accepted++
				return nil
			}
			// Union-level duplicate: redraw within the same join
			// (Theorem 1's conditional).
		}
	}
}

// acceptDraw applies lines 8-14 of Algorithm 1 to a tuple drawn from
// join j (in join j's schema order); it reports whether the tuple
// entered the result.
func (s *CoverSampler) acceptDraw(j int, t relation.Tuple) bool {
	proj := s.shared.base.recordProj(j)
	k, seen := s.record.Lookup(t, proj)
	if s.shared.cfg.Oracle {
		f := s.shared.base.minContaining(j, t)
		if seen {
			s.record.SetAt(k, f)
		} else {
			k = s.record.PutNew(t, proj, f)
		}
		if f < j {
			s.stats.RejectedDup++
			return false
		}
	} else {
		if seen {
			assigned := s.record.At(k)
			if assigned < j {
				s.stats.RejectedDup++ // line 8: covered by an earlier join
				return false
			}
			if assigned > j {
				// Revision (lines 10-12): the value belongs to this earlier
				// join; drop the copies credited to the later one.
				s.record.SetAt(k, j)
				s.stats.Revised++
				s.removeKey(k)
			}
		} else {
			k = s.record.PutNew(t, proj, j)
		}
	}
	off := len(s.arena)
	s.arena = s.shared.base.alignedAppend(j, t, s.arena)
	s.result = append(s.result, resultEntry{key: k, off: off})
	return true
}

// removeKey drops every result tuple with the given record handle.
func (s *CoverSampler) removeKey(k int) {
	kept := s.result[:0]
	for _, e := range s.result {
		if e.key == k {
			s.stats.RevisedRemoved++
			continue
		}
		kept = append(kept, e)
	}
	s.result = kept
}
