package sampleunion

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sampleunion/internal/aqp"
	"sampleunion/internal/core"
	"sampleunion/internal/rng"
)

// Session is a prepared sampler over a union of joins: the expensive
// warm-up (parameter estimation, subroutine setup, index and membership
// prewarming) has already run, exactly once, and every call afterwards
// pays only per-draw cost. This is the preprocessing-then-answer-many-
// queries shape: prepare once, then serve a stream of sampling and AQP
// requests.
//
// A Session is safe for concurrent use. The prepared state is immutable
// and swapped atomically by Refresh; each call takes its own sampling
// run — a recycled one, reset, when the state generation has one — with
// a private RNG stream, buffers, and Stats, and what a call returns is
// the caller's own. Auto-streamed methods (Sample, ApproxCount, ...)
// draw their stream index from an atomic counter, so concurrent calls
// get distinct, non-overlapping streams; use the *Seeded variants when a
// caller needs a bit-reproducible stream regardless of call
// interleaving.
//
// Sessions stay warm across mutations: after Relation.Append/
// AppendRows/Delete on the underlying data, Refresh reconciles only the
// dirty shared state (delta-overlaid indexes, membership deltas,
// residual delta joins, dirty-join walk estimates) and re-estimates,
// instead of paying a cold Prepare. See the README's "Dynamic data &
// refresh" section for the visibility contract.
type Session struct {
	u       *Union
	opts    Options
	state   atomic.Pointer[sessionState]
	streams atomic.Int64

	// refreshMu serializes Refresh; refreshes counts them so each
	// refresh's warm-up randomness comes from its own derived stream
	// (negative stream space, disjoint from the draw streams).
	refreshMu sync.Mutex
	refreshes int64
}

// Estimate is the warm-up parameter report: what the framework knows
// about the union before sampling.
type Estimate struct {
	// JoinSizes are the per-join size estimates |J_j|: exact under
	// WarmupExact and WarmupHistogram (which reads them off the exact
	// weights), Horvitz–Thompson under WarmupRandomWalk and Online, and
	// Olken upper bounds under Online with a negative WarmupWalks.
	JoinSizes []float64
	// CoverSizes are the |J'_j| of §3.1: the share of each join not
	// covered by earlier joins, which the sampler picks joins in
	// proportion to. Exact counts under WarmupExact.
	CoverSizes []float64
	// UnionSize is the estimated |J_1 ∪ ... ∪ J_n|: Σ CoverSizes, under
	// every warm-up (the sharded engine sums its shards' |U_s|, equal up
	// to rounding).
	UnionSize float64
}

// sessionState is one immutable prepared-state generation. Draws load
// it once, so a concurrent Refresh never changes state under a call.
type sessionState struct {
	prepared core.PreparedSampler
	est      Estimate
	refresh  RefreshStats // zero for the generation Prepare built

	// The disjoint-union sampler is built on first use: it needs no
	// estimator, and most sessions never call SampleDisjoint.
	disjointOnce sync.Once
	disjoint     *core.DisjointShared
	disjointErr  error
}

// checkN validates a requested sample count: negative counts are a
// caller error at every Session entry point. empty reports n == 0, which
// every sampling method answers with an empty result at zero cost (and
// every Approx* method with a no-samples error, since an estimate from
// zero samples is undefined).
func checkN(n int) (empty bool, err error) {
	if n < 0 {
		return false, fmt.Errorf("sampleunion: sample count must be >= 0, got %d", n)
	}
	return n == 0, nil
}

// errNoSamples is what Approx* methods return for n == 0: defined,
// explicit behavior instead of a divide-by-zero downstream.
func errNoSamples() error {
	return fmt.Errorf("sampleunion: approximate aggregates need at least 1 sample, got 0")
}

// Prepare runs the warm-up for the given options exactly once and
// returns a Session that serves any number of sampling and AQP calls
// at per-draw cost. It first builds, on every core, what the warm-up and
// the draws read (core.BuildShared): each join edge's index on the
// child's join attribute, and the membership tables of every join but
// the last, the only ones an owner probe asks. It then estimates the
// framework parameters (join sizes, covers, |U|) and builds the per-join
// subroutine samplers, so that concurrent draws only read shared state.
// What no draw reads builds on first use, once, behind its own lock: the
// parent-side index of a join edge on the first Refresh that needs it
// (RefreshStats.IndexesBuilt), the last join's membership tables on
// the first Contains that asks it.
func (u *Union) Prepare(o Options) (*Session, error) {
	o, err := o.Canonical()
	if err != nil {
		return nil, err
	}
	prepared, err := u.prepareSampler(o, rng.New(o.Seed))
	if err != nil {
		return nil, err
	}
	s := &Session{u: u, opts: o}
	s.state.Store(newSessionState(prepared))
	return s, nil
}

func init() {
	core.EngineOf = func(s any) core.PreparedSampler { return s.(*Session).state.Load().prepared }
}

func newSessionState(prepared core.PreparedSampler) *sessionState {
	p := prepared.Params()
	return &sessionState{
		prepared: prepared,
		est: Estimate{
			JoinSizes:  append([]float64(nil), p.JoinSizes...),
			CoverSizes: append([]float64(nil), p.Cover...),
			UnionSize:  p.UnionSize,
		},
	}
}

// Stale reports whether the underlying relations mutated since the
// session's last (re)preparation: draws still work, but serve
// parameters estimated over the old contents until Refresh runs. It
// costs a few atomic loads.
func (s *Session) Stale() bool {
	return s.state.Load().prepared.Stale()
}

// Refresh reconciles the session with mutated data without a cold
// Prepare: per-attribute indexes absorb the mutation log through their
// delta overlays, membership tables patch per-relation deltas, cyclic
// residuals extend by delta joins when they can, only dirty joins'
// subroutine samplers rebuild (exact-weight tables by patching the
// segments the mutations reached) and only they walk again, and the
// parameters re-estimate. The new state is prewarmed and published
// atomically: concurrent draws never block and simply keep their
// generation until the swap. A no-op when nothing mutated.
//
// Refresh is deterministic for a fixed Options.Seed and mutation
// history: the i-th refresh draws warm-up randomness from stream -i.
func (s *Session) Refresh() error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	st := s.state.Load()
	if !st.prepared.Stale() {
		return nil
	}
	start := time.Now()
	s.refreshes++
	g := rng.Borrow(core.DeriveSeed(s.opts.Seed, -s.refreshes))
	defer rng.Return(g)
	np, changed, err := st.prepared.Refresh(g)
	if err != nil {
		return err
	}
	if !changed {
		return nil
	}
	ns := newSessionState(np)
	ns.refresh = np.LastRefresh()
	ns.refresh.Duration = time.Since(start)
	s.state.Store(ns)
	return nil
}

// RefreshStats is a Refresh's work list: how many joins were dirty, how
// much of their exact-weight tables was patched, folded or rebuilt, how
// many walks ran and how many retained walks were probed again, and how
// long it all took.
type RefreshStats = core.RefreshStats

// RefreshStats reports what the session's last effective Refresh did
// (zero until one has run). A refresh that costs far more than its
// burst shows here as rebuilt nodes or joins rather than patched
// segments.
func (s *Session) RefreshStats() RefreshStats { return s.state.Load().refresh }

// disjointShared builds the disjoint-union sampler on first use (per
// state generation — a Refresh rebuilds it lazily too). Cover sessions
// reuse the prepared EW subroutine samplers. Online sessions draw
// through EO internally and sharded sessions have no single shared join
// base, so theirs is prepared on EW over the original (unsharded)
// joins — disjoint draws are the rare path and do not need shard
// fan-out.
func (s *Session) disjointShared(st *sessionState) (*core.DisjointShared, error) {
	st.disjointOnce.Do(func() {
		if s.opts.Shards > 1 || s.opts.Online {
			st.disjoint, st.disjointErr = core.PrepareDisjoint(s.u.joins, core.MethodEW)
			return
		}
		st.disjoint, st.disjointErr = st.prepared.Disjoint()
	})
	return st.disjoint, st.disjointErr
}

// Union returns the union this session samples.
func (s *Session) Union() *Union { return s.u }

// Options returns the options the session was prepared with, in
// canonical form: preparing with them again prepares the same session.
func (s *Session) Options() Options { return s.opts }

// OutputSchema returns the schema sampled tuples use.
func (s *Session) OutputSchema() *Schema { return s.u.OutputSchema() }

// Estimate reports the cached warm-up parameters (of the current state
// generation). No further estimation runs; the call is free.
func (s *Session) Estimate() *Estimate {
	e := s.state.Load().est
	e.JoinSizes = append([]float64(nil), e.JoinSizes...)
	e.CoverSizes = append([]float64(nil), e.CoverSizes...)
	return &e
}

// UnionSize returns the current estimated |J_1 ∪ ... ∪ J_n|.
func (s *Session) UnionSize() float64 { return s.state.Load().est.UnionSize }

// WarmupTime reports how long the last (re)preparation's estimation
// took.
func (s *Session) WarmupTime() time.Duration { return s.state.Load().prepared.WarmupTime() }

// nextStream reserves the next auto-stream index.
func (s *Session) nextStream() int64 { return s.streams.Add(1) }

// nextSeed derives the RNG seed for the next auto stream.
func (s *Session) nextSeed() int64 {
	return core.DeriveSeed(s.opts.Seed, s.nextStream())
}

// drawSpec is one sampling request — what every public sampling and
// aggregate method reduces to.
type drawSpec struct {
	n    int
	seed int64 // the run's RNG stream: caller-supplied, or reserved by nextSeed
	// disjoint draws from the disjoint union (Definition 1) instead of
	// the set union.
	disjoint bool
	// pred, when non-nil, conditions set-union draws on a predicate
	// (§8.3's sampling-time enforcement).
	pred Predicate
}

// draw is the draw path of every sampling method: validate n, load the
// state generation, take a run on the spec's stream
// from it (or from its disjoint-union sampler), draw, and hand the run
// back for the next call to reuse. It returns the tuples and the run's
// statistics (warm-up time excluded: it was paid once at Prepare) — both
// the caller's own, neither pointing into the run.
func (s *Session) draw(d drawSpec) (out []Tuple, stats *Stats, err error) {
	if empty, err := checkN(d.n); err != nil {
		return nil, nil, err
	} else if empty {
		return []Tuple{}, &Stats{}, nil
	}
	st := s.state.Load()
	var p interface{ NewRun() core.Run } = st.prepared
	if d.disjoint {
		if p, err = s.disjointShared(st); err != nil {
			return nil, nil, err
		}
	}
	run := p.NewRun()
	defer run.Release()
	if d.pred != nil {
		out, err = core.SampleWhere(run, s.u.OutputSchema(), d.pred, d.n, run.RNG(d.seed), 0)
	} else {
		out, err = run.Sample(d.n, run.RNG(d.seed))
	}
	if err != nil {
		return nil, nil, err
	}
	return out, ownStats(run.Stats()), nil
}

// ownStats copies a run's statistics out of the run, per-join breakdown
// included, so they stay what they were once the run is reused.
func ownStats(st *Stats) *Stats {
	own := *st
	own.Joins = slices.Clone(st.Joins)
	return &own
}

// Sample draws n independent tuples (with replacement) from the set
// union at per-draw cost, on the session's next auto stream. It returns
// the samples in OutputSchema order together with this call's run
// statistics (warm-up time excluded: it was paid once at Prepare).
// Every call is its own run, and uniform over the union at every n up
// to the estimation error of the warm-up's cover shares: a result in
// cover region j — the results join j produces and no earlier join does —
// is drawn with probability ĉ_j/(Û·c_j), which is 1/|U| under WarmupExact
// and as close as the estimates ĉ_j are to the region sizes c_j otherwise
// (README, What a request gets).
func (s *Session) Sample(n int) ([]Tuple, *Stats, error) {
	return s.SampleSeeded(n, s.nextSeed())
}

// SampleSeeded is Sample on an explicit stream: the same seed always
// reproduces the same tuples, bit for bit, regardless of what other
// calls run concurrently (given the same data and refresh history).
func (s *Session) SampleSeeded(n int, seed int64) ([]Tuple, *Stats, error) {
	out, stats, err := s.draw(drawSpec{n: n, seed: seed})
	return out, stats, err
}

// SampleView is Sample for a caller that reads the batch while the
// session holds its run — to encode, fold or filter it — and keeps none of
// it: it draws n tuples on the stream Sample would use, calls use with
// them and the |U| estimate the run drew under, then hands the run back.
// The tuples alias the run's buffers and are valid only until use
// returns; what use returns, SampleView returns. n == 0 reserves a stream
// and calls use with no tuples, as Sample does.
func (s *Session) SampleView(n int, use func(tuples []Tuple, unionSize float64) error) error {
	return s.SampleViewSeeded(n, s.nextSeed(), use)
}

// SampleViewSeeded is SampleView on an explicit stream: use gets the
// tuples SampleSeeded(n, seed) returns.
func (s *Session) SampleViewSeeded(n int, seed int64, use func(tuples []Tuple, unionSize float64) error) error {
	if empty, err := checkN(n); err != nil {
		return err
	} else if empty {
		return use([]Tuple{}, s.UnionSize())
	}
	run := s.state.Load().prepared.NewRun()
	defer run.Release()
	tuples, err := run.SampleView(n, run.RNG(seed))
	if err != nil {
		return err
	}
	return use(tuples, run.Params().UnionSize)
}

// SampleBatch forwards to Sample.
//
// Deprecated: Sample is the batch engine.
func (s *Session) SampleBatch(n int) ([]Tuple, *Stats, error) { return s.Sample(n) }

// SampleBatchSeeded forwards to SampleSeeded.
//
// Deprecated: SampleSeeded is the batch engine.
func (s *Session) SampleBatchSeeded(n int, seed int64) ([]Tuple, *Stats, error) {
	return s.SampleSeeded(n, seed)
}

// SampleDisjoint draws n tuples from the disjoint union (Definition 1):
// each result tuple with probability 1/(|J_1| + ... + |J_n|), counting
// duplicates across joins separately. It reuses the session's prepared
// subroutine samplers.
func (s *Session) SampleDisjoint(n int) ([]Tuple, *Stats, error) {
	return s.SampleDisjointSeeded(n, s.nextSeed())
}

// SampleDisjointSeeded is SampleDisjoint on an explicit stream.
func (s *Session) SampleDisjointSeeded(n int, seed int64) ([]Tuple, *Stats, error) {
	out, stats, err := s.draw(drawSpec{n: n, seed: seed, disjoint: true})
	return out, stats, err
}

// SampleWhere draws n samples satisfying the predicate, uniform over
// the satisfying subset of the union — §8.3's sampling-time predicate
// enforcement. Rejection adds a cost factor of |σ(U)|/|U|, so highly
// selective predicates should be pushed down with Union.PushDown before
// preparing instead.
func (s *Session) SampleWhere(n int, pred Predicate) ([]Tuple, *Stats, error) {
	return s.SampleWhereSeeded(n, pred, s.nextSeed())
}

// SampleWhereSeeded is SampleWhere on an explicit stream.
func (s *Session) SampleWhereSeeded(n int, pred Predicate, seed int64) ([]Tuple, *Stats, error) {
	out, stats, err := s.draw(drawSpec{n: n, seed: seed, pred: pred})
	return out, stats, err
}

// SampleWhereBatchSeeded forwards to SampleWhereSeeded.
//
// Deprecated: SampleWhereSeeded is the batch engine.
func (s *Session) SampleWhereBatchSeeded(n int, pred Predicate, seed int64) ([]Tuple, *Stats, error) {
	return s.SampleWhereSeeded(n, pred, seed)
}

// SampleParallel draws n tuples using the given number of worker
// goroutines over the session's single shared warm-up: workers share
// the prepared read-only state and each draws one shard-sized batch
// (SampleSeeded) on its own decorrelated stream, so the total warm-up
// cost stays one, no matter how many workers run. Every worker stream
// is uniform and independent, hence so is their concatenation.
func (s *Session) SampleParallel(n, workers int) ([]Tuple, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("sampleunion: workers must be positive, got %d", workers)
	}
	if empty, err := checkN(n); err != nil {
		return nil, err
	} else if empty {
		return []Tuple{}, nil
	}
	if workers > n {
		workers = n
	}
	// A sharded session parallelizes inside Sample (per-shard
	// sub-batches on the shard worker pool); stacking outer workers on
	// top would oversubscribe the cores, so the whole request goes
	// through one call.
	if workers <= 1 || s.opts.Shards > 1 {
		out, _, err := s.Sample(n)
		return out, err
	}
	// Reserve a contiguous block of stream indexes so one SampleParallel
	// call is deterministic in isolation.
	first := s.streams.Add(int64(workers)) - int64(workers) + 1
	per := n / workers
	parts := make([][]Tuple, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		count := per
		if w == workers-1 {
			count = n - per*(workers-1)
		}
		wg.Add(1)
		go func(w, count int, stream int64) {
			defer wg.Done()
			parts[w], _, errs[w] = s.SampleSeeded(count, core.DeriveSeed(s.opts.Seed, stream))
		}(w, count, first+int64(w))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]Tuple, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// AggResult is an approximate-aggregate estimate with its confidence
// half-width.
type AggResult = aqp.Result

// GroupEstimate is one group of ApproxGroupCount.
type GroupEstimate = aqp.Group

// DefaultZ is the 95% confidence multiplier every Approx* interval uses.
const DefaultZ = 1.96

// ApproxCount estimates COUNT(*) WHERE pred over the set union from n
// draws — the approximate-query-answering use case of the paper's
// introduction. The session's cached |U| estimate serves the scale-up,
// so the call costs n draws and nothing more: like every Approx* method
// it holds one run for the fold and counts the samples in the run's own
// buffer, so what it allocates does not grow with n. Its interval covers
// the sampling noise of those n draws, not the error of the warm-up's
// parameters: the draws are uniform up to the estimation error of the
// cover shares and the scale-up uses the estimated |U| (see Sample), so
// under WarmupExact the interval is calibrated at every n, and under an
// estimating warm-up an aggregate over a region whose cover share is
// mis-estimated is off by that share's error however large n is.
func (s *Session) ApproxCount(pred Predicate, n int) (AggResult, error) {
	return foldSamples(s, n, func(samples []Tuple, unionSize float64) (AggResult, error) {
		return aqp.Count(samples, s.u.OutputSchema(), pred, unionSize, DefaultZ)
	})
}

// ApproxSum estimates SUM(attr) WHERE pred over the set union.
func (s *Session) ApproxSum(attr string, pred Predicate, n int) (AggResult, error) {
	return foldSamples(s, n, func(samples []Tuple, unionSize float64) (AggResult, error) {
		return aqp.Sum(samples, s.u.OutputSchema(), attr, pred, unionSize, DefaultZ)
	})
}

// ApproxAvg estimates AVG(attr) WHERE pred over the set union. AVG is
// a ratio estimator, so |U| cancels and only the samples matter.
func (s *Session) ApproxAvg(attr string, pred Predicate, n int) (AggResult, error) {
	return foldSamples(s, n, func(samples []Tuple, _ float64) (AggResult, error) {
		return aqp.Avg(samples, s.u.OutputSchema(), attr, pred, DefaultZ)
	})
}

// ApproxGroupCount estimates COUNT(*) GROUP BY attr over the set
// union, descending by estimated group size. Groups rarer than about
// |U|/n are expected to be missing from the result.
func (s *Session) ApproxGroupCount(attr string, n int) ([]GroupEstimate, error) {
	return foldSamples(s, n, func(samples []Tuple, unionSize float64) ([]GroupEstimate, error) {
		return aqp.GroupCount(samples, s.u.OutputSchema(), attr, unionSize, DefaultZ)
	})
}

// foldSamples is the draw behind every Approx* aggregate: n samples on
// the next auto stream, folded where the run wrote them (SampleView), so no
// tuple is copied out to be counted. fold also gets the |U| estimate the run
// sampled under, and must keep no sample. An estimate from zero samples is
// undefined, so n == 0 is an error here, before any stream is reserved,
// rather than an empty result.
func foldSamples[T any](s *Session, n int, fold func(samples []Tuple, unionSize float64) (T, error)) (res T, err error) {
	if empty, err := checkN(n); err != nil {
		return res, err
	} else if empty {
		return res, errNoSamples()
	}
	err = s.SampleView(n, func(samples []Tuple, unionSize float64) (err error) {
		res, err = fold(samples, unionSize)
		return err
	})
	return res, err
}
