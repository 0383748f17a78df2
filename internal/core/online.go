package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sampleunion/internal/histest"
	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/tune"
	"sampleunion/internal/walkest"
)

// OnlineConfig configures the online union sampler (Algorithm 2).
type OnlineConfig struct {
	// WarmupWalks > 0 runs that many wander-join walks per join before
	// sampling, filling the reuse pool and replacing the histogram
	// initialization with random-walk estimates (the paper's
	// "random-walk with reuse"). 0 starts from histogram parameters
	// alone and lets estimates refine purely online (the no-warm-up
	// variant of §4's closing remark).
	WarmupWalks int
	// HistOpts configure the histogram initialization (line 1).
	HistOpts histest.Options
	// WalkOpts tune confidence parameters (Z defaulting per walkest).
	WalkOpts walkest.Options
	// Phi is the backtrack period: a parameter update and backtracking
	// pass runs every Phi recorded probabilities (line 18). Values <= 0
	// default to 64.
	Phi int
	// Gamma is the target confidence level; once reached, parameter
	// updates stop (line 18). Values <= 0 default to 0.9.
	Gamma float64
	// Oracle uses exact membership instead of the dynamic record.
	Oracle bool
	// MaxDrawsPerSelection caps attempts per join selection; <= 0
	// defaults to 256 — or, with a Tuner, to the plan's cap.
	MaxDrawsPerSelection int
	// Tuner, when non-nil, re-plans at every warm-up (Prepare and
	// Refresh): per-join walk budgets (wide cyclic estimates get more
	// walks), exact-count escalation for wide tree-join estimates
	// (pinned through run-level refinement via the size overrides), and
	// the batch slice cap. The subroutine stays EO for every join — the
	// online sampler is walk-based by construction.
	Tuner *tune.Controller
}

type onlineEntry struct {
	key  int // record handle of the tuple's value (see resultEntry)
	off  int // start of the tuple's span in the run's arena
	join int
	prob float64 // inclusion probability the tuple was accepted under
}

// OnlineShared is the prepared state of Algorithm 2: the histogram
// initialization plus warm-up walks, run exactly once. The master walk
// estimator is frozen after warm-up; each run handed out by NewRun
// starts from its own copy of the Horvitz–Thompson and overlap state —
// but not the warm-up sample pool: handing the same tuples to several
// runs would correlate streams that must be independent, so prepared
// runs start from the shared estimates and draw fresh walks. The §7
// sample-reuse optimization belongs to a single stream: NewReuseRun
// hands the pool to the one run that owns it.
type OnlineShared struct {
	base    *unionBase
	cfg     OnlineConfig
	walks   *walkest.Estimator
	params  *Params
	alias   *rng.Alias
	maxDraw int
	// exactSizes pin escalated joins' exact counts (index -1 entries
	// keep the walk estimate); run-level parameter refinement reads the
	// overlap table through them so refinement never un-escalates.
	exactSizes []float64
	warmupTime time.Duration
	refresh    RefreshStats // what the Refresh that built this state did

	// runs recycles released *OnlineSampler of this generation (see
	// CoverShared.runs).
	runs *sync.Pool
}

// PrepareOnline builds the shared state for Algorithm 2 and runs the
// warm-up (histogram initialization + warm-up walks) exactly once,
// drawing warm-up randomness from g.
func PrepareOnline(joins []*join.Join, cfg OnlineConfig, g *rng.RNG) (*OnlineShared, error) {
	base, err := newUnionBase(joins, uniformJoinConfigs(len(joins), MethodEO, 0), false)
	if err != nil {
		return nil, err
	}
	if cfg.Phi <= 0 {
		cfg.Phi = 64
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = 0.9
	}
	maxDraw := cfg.MaxDrawsPerSelection
	if maxDraw <= 0 {
		maxDraw = 256
	}
	walks, err := walkest.New(joins, cfg.WalkOpts)
	if err != nil {
		return nil, err
	}
	p := &OnlineShared{base: base, cfg: cfg, walks: walks, maxDraw: maxDraw, runs: newRunPool()}
	if err := p.warm(g); err != nil {
		return nil, err
	}
	return p, nil
}

// warm initializes parameters: histogram first (cheap), then walks
// until every join has the configured number of warm-up walks, whose
// samples seed the reuse pool. It runs exactly once per prepared state
// (PrepareOnline or Refresh), before the state is published to runs. On
// a refresh the histogram re-reads the (incrementally maintained)
// indexes, and only the dirty joins walk: Refresh reset their
// estimates, while a clean join's cloned estimate already counts the
// WarmupWalks walks of its own warm-up, so its loop below is a no-op.
func (p *OnlineShared) warm(g *rng.RNG) error {
	start := time.Now()
	hist := &HistogramEstimator{Joins: p.base.joins, Opts: p.cfg.HistOpts}
	params, err := hist.Params(g)
	if err != nil {
		return err
	}
	p.params = params
	if p.cfg.WarmupWalks > 0 {
		for j, je := range p.walks.JoinEstimates() {
			for je.Walks() < p.cfg.WarmupWalks {
				p.walks.StepJoin(j, g)
			}
		}
		if params, ok, err := paramsFromWalks(p.walks, nil); err != nil {
			return err
		} else if ok {
			p.params = params
		}
	}
	if p.cfg.Tuner != nil {
		if err := p.retune(g); err != nil {
			return err
		}
	}
	p.alias = rng.NewAlias(p.params.Cover)
	p.warmupTime = time.Since(start)
	if p.alias == nil {
		return ErrEmptyUnion
	}
	return nil
}

// retune runs the adaptive re-plan at an online warm-up boundary:
// wide cyclic joins walk up to their escalated budgets, wide tree
// joins escalate to exact counts (pinned via exactSizes so run-level
// refinement keeps them), and the batch slice cap follows the plan.
// Join subroutines are not re-planned — the online sampler draws by
// wander-join walks by construction.
func (p *OnlineShared) retune(g *rng.RNG) error {
	stats := gatherTuneStats(p.base.joins, p.params, p.walks, false)
	plan := p.cfg.Tuner.Replan(stats)
	params, sizes, err := applyPlanEstimates(p.base, plan, p.params, p.walks, g)
	if err != nil {
		return err
	}
	p.params = params
	p.exactSizes = sizes
	if p.cfg.MaxDrawsPerSelection <= 0 {
		p.maxDraw = plan.MaxDrawsPerSelection
	}
	return nil
}

// paramsFromWalks rebuilds Params from a walk estimator once every join
// has observations; ok is false while any join is still unobserved (the
// caller keeps its current parameters). Non-nil sizes pin escalated
// joins' exact counts through the rebuild (walkest.TableWithSizes).
func paramsFromWalks(walks *walkest.Estimator, sizes []float64) (*Params, bool, error) {
	for _, je := range walks.JoinEstimates() {
		if je.Walks() == 0 {
			return nil, false, nil
		}
	}
	t, err := walks.TableWithSizes(sizes)
	if err != nil {
		return nil, false, err
	}
	return ParamsFromTable(t), true, nil
}

// Refresh returns an OnlineShared reconciled with the current data.
// Dirty joins rebuild their subroutine samplers, and the walk state
// follows walkest's refresh rule (Estimator.Refreshed, as the cover
// sampler's random-walk estimator does): dirty joins' estimates reset
// and re-warm (the old walks were observations of a join that no longer
// exists); clean joins keep their samplers, Horvitz–Thompson estimates
// and retained walks, whose membership in the dirty joins is probed
// again. The receiver is untouched; in-flight runs keep their snapshot.
func (p *OnlineShared) Refresh(g *rng.RNG) (PreparedSampler, bool, error) {
	nb, dirty, changed := p.base.refreshed()
	if !changed {
		if p.cfg.Tuner == nil || !p.cfg.Tuner.NeedsReplan() {
			return p, false, nil
		}
		// Rejection feedback requested a re-plan on clean data: rebuild
		// against a clone so in-flight runs keep their snapshot.
		nb = p.base.clone()
	}
	np := &OnlineShared{base: nb, cfg: p.cfg, maxDraw: p.maxDraw, runs: newRunPool()}
	np.walks, np.refresh.Reprobed = p.walks.Refreshed(dirty)
	dropDirtyFeedback(p.cfg.Tuner, dirty)
	if err := np.warm(g); err != nil {
		return nil, false, err
	}
	nb.patchStats(dirty, &np.refresh)
	np.refresh.Walks = walksRun(p.walks, np.walks, dirty)
	return np, true, nil
}

// Params returns the warm-up parameters.
func (p *OnlineShared) Params() *Params { return p.params }

// WarmupTime reports how long the one-time warm-up took.
func (p *OnlineShared) WarmupTime() time.Duration { return p.warmupTime }

// NewRun returns a sampling run over the shared warm-up with its own
// copy of the walk estimator's running estimates (pool excluded, see
// the type comment), record, result buffer, and Stats: a released run of
// this generation when there is one, a new one otherwise, reset either
// way. Runs are independent and reproducible from their RNG; any number
// may sample concurrently as long as each uses its own RNG.
func (p *OnlineShared) NewRun() Run {
	s, _ := p.runs.Get().(*OnlineSampler)
	if s == nil {
		s = &OnlineSampler{walks: new(walkest.Estimator), record: p.base.recordKeys()}
	}
	s.shared = p
	s.reset()
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
	s.walks = p.walks.Clone()
	return s
}

func (p *OnlineShared) unionBase() *unionBase { return p.base }

// OnlineSampler is one run of Algorithm 2: it starts from the shared
// warm-up parameters, samples joins with wander-join walks whose draws
// double as Horvitz–Thompson observations, reuses warm-up samples with
// the l/(p(t)·|J_j|) acceptance correction (line 8), and every Phi
// recorded probabilities re-estimates parameters and backtracks
// previously accepted tuples to the new distribution (§7). All mutable
// state — the walk estimator copy, parameters under refinement, the
// record, the result buffer, stats — is per-run.
type OnlineSampler struct {
	runRNG
	shared   *OnlineShared
	walks    *walkest.Estimator
	params   *Params
	alias    *rng.Alias
	record   *relation.KeyCounter // value (ref order) -> assigned join
	result   []onlineEntry
	arena    []relation.Value // backing store of buffered samples
	stats    Stats
	recorded int
	conf     float64
}

// reset adopts the shared warm-up into the run and starts it over:
// parameters and alias by reference (replaced, never mutated, on
// refinement), the walk estimates copied into the estimator the run
// already owns (they mutate with every draw), record and buffers emptied
// with their storage kept, counters zeroed.
func (s *OnlineSampler) reset() {
	p := s.shared
	s.walks.CopyEstimates(p.walks)
	s.params, s.alias = p.params, p.alias
	s.record.Reset()
	s.result, s.arena = s.result[:0], s.arena[:0]
	s.stats.reset(len(p.base.joins))
	s.recorded, s.conf = 0, 0
}

// Release returns the run to its generation's pool (see Run.Release).
func (s *OnlineSampler) Release() {
	p := s.shared
	s.shared, s.params, s.alias = nil, nil, nil
	if p.base.poolable(s.arena, s.record) {
		p.runs.Put(s)
	}
}

// refreshParams rebuilds Params from the run's walk estimator when it
// has observations, keeping the current values otherwise.
func (s *OnlineSampler) refreshParams() error {
	params, ok, err := paramsFromWalks(s.walks, s.shared.exactSizes)
	if err != nil {
		return err
	}
	if !ok {
		return nil // keep current params until walks exist everywhere
	}
	s.params = params
	s.alias = rng.NewAlias(params.Cover)
	if s.alias == nil {
		return fmt.Errorf("core: refreshed cover is all-zero")
	}
	return nil
}

// Params returns the run's current parameters.
func (s *OnlineSampler) Params() *Params { return s.params }

// Stats returns the run's instrumentation. Per-join WalkVariance
// reflects the run's current walk state at the time of the call (zero
// for joins whose size is pinned exact by the tuner).
func (s *OnlineSampler) Stats() *Stats {
	for j, je := range s.walks.JoinEstimates() {
		if es := s.shared.exactSizes; es != nil && j < len(es) && es[j] >= 0 {
			s.stats.Joins[j].WalkVariance = 0
			continue
		}
		s.stats.Joins[j].WalkVariance = je.RelHalfWidth(s.walks.Z())
	}
	return &s.stats
}

// Confidence returns the walk estimator's current confidence level.
func (s *OnlineSampler) Confidence() float64 { return s.conf }

// Sample returns n tuples from the set union in the first join's
// output schema order. Consecutive calls continue the stream: returned
// tuples are final (later revisions and backtracking only affect
// buffered, not-yet-returned tuples). Walks feed the run's estimates
// one at a time — each walk updates the parameters the next draw
// samples under — while the result buffer, the arena and the record are
// sized for the batch once per call and the wall clock is read once per
// call, split across Accept/Reject and Reuse/Regular by the call's
// attempt counts (bookBatchTime).
func (s *OnlineSampler) Sample(n int, g *rng.RNG) ([]relation.Tuple, error) {
	s.result = growEntries(s.result, n)
	s.arena = growArena(s.arena, (n-len(s.result))*s.shared.base.ref.Len())
	s.shared.base.reserveRecord(s.record, n-len(s.result))
	before := s.stats
	start := time.Now()
	for len(s.result) < n {
		if err := s.drawOne(g); err != nil {
			return nil, err
		}
		if err := s.maybeBacktrack(g); err != nil {
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
func (s *OnlineSampler) SampleBatch(n int, g *rng.RNG) ([]relation.Tuple, error) {
	return s.Sample(n, g)
}

// serveResult copies the first n buffered samples out over one flat
// backing (two allocations for the whole batch) and compacts the arena
// behind the remaining entries. Entry offsets are non-decreasing — the
// mult instances of one commit share one span — so duplicates remap to
// the span's new position and distinct spans forward-copy safely (the
// m-th distinct remaining span starts at or after m*k).
func (s *OnlineSampler) serveResult(n int) []relation.Tuple {
	k := s.shared.base.ref.Len()
	out := serveFlat(s.arena, n, k, func(i int) int { return s.result[i].off })
	s.result = s.result[:copy(s.result, s.result[n:])]
	w := 0
	prevOld, prevNew := -1, -1
	for i := range s.result {
		e := &s.result[i]
		if e.off == prevOld {
			e.off = prevNew
			continue
		}
		prevOld = e.off
		if e.off != w {
			copy(s.arena[w:w+k], s.arena[e.off:e.off+k])
		}
		prevNew = w
		e.off = w
		w += k
	}
	s.arena = s.arena[:w]
	return out
}

// drawOne selects a join by cover weight and retries within it until
// at least one instance of a tuple is accepted.
func (s *OnlineSampler) drawOne(g *rng.RNG) error {
	for selections := 0; ; selections++ {
		if selections > 64 {
			return fmt.Errorf("core: online sampler made no progress after %d selections", selections)
		}
		j := s.alias.Draw(g)
		for attempt := 0; attempt < s.shared.maxDraw; attempt++ {
			t, mult, reuse, ok := s.candidate(j, g)
			if !ok {
				continue
			}
			if k, ok := s.acceptValue(j, t); ok {
				s.commit(k, j, t, mult)
				if reuse {
					s.stats.ReuseAccepted++
				}
				return nil
			}
			s.stats.RejectedDup++
		}
	}
}

// candidate produces one tuple of join j with a multiplicity, first
// from the reuse pool (line 8), then by a fresh wander-join walk whose
// probability feeds the running estimates. Both paths apply the
// p(t)-correction so that each value of J_j is produced with equal
// expected multiplicity — uniform within the join.
func (s *OnlineSampler) candidate(j int, g *rng.RNG) (relation.Tuple, int, bool, bool) {
	je := s.walks.JoinEstimates()[j]
	size := s.params.JoinSizes[j]
	s.stats.Joins[j].Draws++
	if pool := je.Samples(); len(pool) > 0 {
		sm := je.TakeSample(g.Intn(len(pool))) // without replacement (line 8)
		// Acceptance ratio: the pool's composition is proportional to
		// p(t) and the acceptance proportional to 1/p(t), so any
		// constant scale preserves per-value uniformity; 1/(p·|J|)
		// keeps the ratio near one. This deviates from Algorithm 2 on
		// purpose: the paper's l·/(p·|J|) scale inflates the
		// multiplicity of every accepted tuple by the pool size.
		mult := s.instances(1/(sm.P*size), g)
		if mult > 0 {
			return sm.Tuple, mult, true, true
		}
		s.stats.ReuseRejected++
		return nil, 0, true, false
	}
	s.stats.TotalDraws++
	sm, ok := s.walks.StepJoin(j, g) // fresh walk; updates the estimates
	s.recorded++
	if !ok {
		s.stats.JoinRejects++
		s.stats.Joins[j].Rejected++
		return nil, 0, false, false
	}
	// The walk enters the pool inside Step; consume it immediately so
	// the fresh draw is not double-counted as reusable.
	je.TakeSample(len(je.Samples()) - 1)
	mult := s.instances(1/(sm.P*size), g)
	if mult == 0 {
		s.stats.JoinRejects++
		s.stats.Joins[j].Rejected++
		return nil, 0, false, false
	}
	return sm.Tuple, mult, false, true
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

// acceptValue applies the cover record / revision logic of Algorithm 1
// to a candidate value of join j; on acceptance it returns the value's
// record handle for commit.
func (s *OnlineSampler) acceptValue(j int, t relation.Tuple) (int, bool) {
	proj := s.shared.base.recordProj(j)
	k, seen := s.record.Lookup(t, proj)
	if s.shared.cfg.Oracle {
		f := s.shared.base.minContaining(j, t)
		if seen {
			s.record.SetAt(k, f)
		} else {
			k = s.record.PutNew(t, proj, f)
		}
		return k, f == j
	}
	if seen {
		assigned := s.record.At(k)
		if assigned < j {
			return k, false
		}
		if assigned > j {
			s.record.SetAt(k, j)
			s.stats.Revised++
			s.removeKey(k)
		}
	} else {
		k = s.record.PutNew(t, proj, j)
	}
	return k, true
}

func (s *OnlineSampler) removeKey(k int) {
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

// commit appends mult instances of the accepted tuple, recording the
// inclusion probability they were accepted under for backtracking.
func (s *OnlineSampler) commit(k, j int, t relation.Tuple, mult int) {
	off := len(s.arena)
	s.arena = s.shared.base.alignedAppend(j, t, s.arena)
	prob := s.inclusionProb(j)
	for i := 0; i < mult; i++ {
		s.result = append(s.result, onlineEntry{key: k, off: off, join: j, prob: prob})
	}
	s.stats.Accepted += mult
	s.stats.Joins[j].Accepted += mult
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
	if s.recorded < s.shared.cfg.Phi || s.conf >= s.shared.cfg.Gamma {
		return nil
	}
	s.recorded = 0
	s.stats.Backtracks++
	if err := s.refreshParams(); err != nil {
		return err
	}
	z := s.shared.cfg.WalkOpts.Z
	if z <= 0 {
		z = 1.645
	}
	s.conf = s.walks.Confidence(z)
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
