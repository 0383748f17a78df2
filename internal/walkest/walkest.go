// Package walkest implements the random-walk instantiation of the
// union-sampling framework (§6). Each join keeps two Horvitz–Thompson
// estimates over its own Wander-Join walks (§6.1): its size |J_j|, and the
// size c_j of its cover region — the results no earlier join contains
// (§3.1), which a walk knows from f(t), the first join containing its
// tuple (§6.2's containment check, join.Owners). The package also keeps
// confidence intervals for the cover sizes and the warm-up's retained
// walks: the pool §7's sample reuse draws from and a refresh probes again.
// A retained walk is its p(t), its owner and the row ids it picked, 4 B a
// node; its tuple is rebuilt from them only where one is read.
package walkest

import (
	"fmt"
	"math"
	"slices"

	"sampleunion/internal/join"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// Sample is one successful walk: its walk probability p(t), and Owner,
// f(t) — the first join containing the tuple, its own when no earlier
// join does — as the Estimator that walked it last probed it; -1 when it
// did not (WalkJoin). The tuple is the walk's caller's, or, for a
// retained walk, its row ids in the pool.
type Sample struct {
	P     float64
	Owner int
}

// moments is a running mean and sum of squared deviations, updated with
// Welford's algorithm in O(1) per observation.
type moments struct{ mean, m2 float64 }

// add folds x in as the n-th observation.
func (m *moments) add(x float64, n int) {
	d := x - m.mean
	m.mean += d / float64(n)
	m.m2 += d * (x - m.mean)
}

// JoinEstimate maintains the running Horvitz–Thompson estimates of one
// join over its n walks, a failed walk contributing 0 to both: the mean
// of 1/p(t) is an unbiased estimator of |J| (§6.1), and the mean of
// y(t) = 1/p(t) when no earlier join contains t, else 0, one of the cover
// size c = |J'| (§3.1). Both update in O(1) per walk, matching the
// paper's real-time update rule.
type JoinEstimate struct {
	J           *join.Join
	walker      *joinsample.Walker
	n           int
	size, cover moments

	// samples are the retained walks. Walk i picked the rows
	// rows[i·w:(i+1)·w], w = width(): one per node and, for a cyclic join,
	// a row of res, the residual state all of them read. A walk writes
	// its rows into the spare capacity past them, so keeping it costs no
	// copy.
	samples []Sample
	rows    []int32
	res     join.ResView
}

// NewJoinEstimate prepares an empty estimate for j.
func NewJoinEstimate(j *join.Join) *JoinEstimate {
	return &JoinEstimate{J: j, walker: joinsample.NewWalker(j)}
}

// width is the row ids a walk picks: one per node, and a residual row.
func (e *JoinEstimate) width() int {
	if e.J.IsCyclic() {
		return len(e.J.Nodes()) + 1
	}
	return len(e.J.Nodes())
}

// walk performs one wander-join walk into t — the caller's, one output
// tuple wide — reading the residual state rv, and returns p(t) when it
// succeeded. Its row ids land past the pool's (keep retains them). It
// folds nothing in.
func (e *JoinEstimate) walk(rv join.ResView, t relation.Tuple, g *rng.RNG) (float64, bool) {
	w := e.width()
	e.rows = slices.Grow(e.rows, w)
	return e.walker.WalkInto(rv, t, e.rows[len(e.rows):len(e.rows)+w], g)
}

// keep adds the walk that just succeeded to the pool.
func (e *JoinEstimate) keep(s Sample) {
	e.samples = append(e.samples, s)
	e.rows = e.rows[:len(e.rows)+e.width()]
}

// reserve sizes the empty estimate's pool for a warm-up that keeps about
// kept walks, as its predecessor did: that many and a quarter more, at
// most the walk budget, so the warm-up allocates it once unless it keeps
// more.
func (e *JoinEstimate) reserve(kept, budget int) {
	if n := min(kept+kept/4, budget); n > 0 {
		e.samples = make([]Sample, 0, n)
		e.rows = make([]int32, 0, n*e.width())
	}
}

// fill writes the tuple of retained walk i into out, one output tuple
// wide.
func (e *JoinEstimate) fill(i int, out relation.Tuple) {
	w := e.width()
	e.J.FillRows(e.res, e.rows[i*w:(i+1)*w], out)
}

// observe folds one walk in: invP is its 1/p(t) and y its cover
// observation, both 0 for a failed walk.
func (e *JoinEstimate) observe(invP, y float64) {
	e.n++
	e.size.add(invP, e.n)
	e.cover.add(y, e.n)
}

// coverObservation is y(t) for s, a successful walk of join j.
func coverObservation(s Sample, j int) float64 {
	if s.Owner != j {
		return 0
	}
	return 1 / s.P
}

// rederiveCover recomputes the cover moments of join j from the retained
// walks, after their owners were derived again: every successful walk a
// warm-up took is retained, so the n − len(samples) others failed and
// count 0.
func (e *JoinEstimate) rederiveCover(j int) {
	var c moments
	for i, s := range e.samples {
		c.add(coverObservation(s, j), i+1)
	}
	for i := len(e.samples); i < e.n; i++ {
		c.add(0, i+1)
	}
	e.cover = c
}

// Walks reports the number of observations folded in so far.
func (e *JoinEstimate) Walks() int { return e.n }

// Size returns the current |J| estimate (0 before any walk).
func (e *JoinEstimate) Size() float64 { return e.size.mean }

// Cover returns the current cover-size estimate ĉ (0 before any walk).
func (e *JoinEstimate) Cover() float64 { return e.cover.mean }

// coverHalfWidth returns the z·σ/√n confidence half-width of ĉ (+Inf
// before any walk). The variance is floored at ĉ²·3/n, the rule of three,
// so that n equal observations never read as an exact estimate.
func (e *JoinEstimate) coverHalfWidth(z float64) float64 {
	if e.n == 0 {
		return math.Inf(1)
	}
	n := float64(e.n)
	v := 0.0
	if e.n > 1 {
		v = e.cover.m2 / (n - 1)
	}
	return z * math.Sqrt(max(v, e.cover.mean*e.cover.mean*3/n)/n)
}

// CoverRelHalfWidth is coverHalfWidth relative to ĉ: +Inf before any walk
// and while ĉ is zero.
func (e *JoinEstimate) CoverRelHalfWidth(z float64) float64 {
	if e.n == 0 || e.cover.mean <= 0 {
		return math.Inf(1)
	}
	return e.coverHalfWidth(z) / e.cover.mean
}

// Samples returns the retained successful walks. The slice is shared: a
// reuse run consumes it as its pool (TakeSample).
func (e *JoinEstimate) Samples() []Sample { return e.samples }

// TakeSample removes and returns the sample at index i (order is not
// preserved), its tuple written into out: sample reuse is without
// replacement (§7).
func (e *JoinEstimate) TakeSample(i int, out relation.Tuple) Sample {
	e.fill(i, out)
	s, last, w := e.samples[i], len(e.samples)-1, e.width()
	e.samples[i] = e.samples[last]
	copy(e.rows[i*w:], e.rows[last*w:])
	e.samples, e.rows = e.samples[:last], e.rows[:last*w]
	return s
}

// Options tune the warm-up phase.
type Options struct {
	// MaxWalks caps walks per join (paper: 1,000). Values <= 0 default
	// to 1000.
	MaxWalks int
	// Z is the confidence multiplier (paper's 90% level: 1.645). Values
	// <= 0 default to 1.645.
	Z float64
	// TargetRel stops walking a join early once the confidence
	// half-width of its cover size falls below TargetRel × ĉ. Values <= 0
	// default to 0.1.
	TargetRel float64
	// MinWalks floors the walk count before the early-stop test.
	// Values <= 0 default to 64.
	MinWalks int
}

func (o Options) withDefaults() Options {
	if o.MaxWalks <= 0 {
		o.MaxWalks = 1000
	}
	if o.Z <= 0 {
		o.Z = 1.645
	}
	if o.TargetRel <= 0 {
		o.TargetRel = 0.1
	}
	if o.MinWalks <= 0 {
		o.MinWalks = 64
	}
	return o
}

// Estimator runs the warm-up phase for a union of joins: one JoinEstimate
// per join, each updated as its walks happen, so the estimates survive
// the online sampler consuming the reuse pool. A refining walk of join j
// is probed once, for its owner (owners, immutable and shared by clones):
// against the joins before j, up to the first that contains it.
type Estimator struct {
	joins  []*join.Join
	ests   []*JoinEstimate
	opts   Options
	owners *join.Owners
}

// New prepares a random-walk estimator over the joins, which must share
// one output attribute set.
func New(joins []*join.Join, opts Options) (*Estimator, error) {
	if len(joins) == 0 {
		return nil, fmt.Errorf("walkest: no joins")
	}
	owners, err := join.NewOwners(joins)
	if err != nil {
		return nil, fmt.Errorf("walkest: %w", err)
	}
	e := &Estimator{joins: joins, opts: opts.withDefaults(), owners: owners}
	for _, j := range joins {
		e.ests = append(e.ests, NewJoinEstimate(j))
	}
	return e, nil
}

// JoinEstimates exposes the per-join estimates (for sample reuse and
// for the online sampler's refinement loop).
func (e *Estimator) JoinEstimates() []*JoinEstimate { return e.ests }

// clone returns an independent copy of the estimate: the running
// moments by value, the sample pool by slice copy, and the stateless
// walker by reference.
func (e *JoinEstimate) clone() *JoinEstimate {
	c := e.share()
	c.samples, c.rows = slices.Clone(e.samples), slices.Clone(e.rows)
	return c
}

// share is clone with the sample pool shared read-only: clipped, so the
// copy's first walk moves it to storage of its own.
func (e *JoinEstimate) share() *JoinEstimate {
	c := *e
	c.samples, c.rows = slices.Clip(e.samples), slices.Clip(e.rows)
	return &c
}

// Clone returns an independent deep copy of the estimator's mutable
// state: per-join estimates and reuse pools. The one run that owns the
// warm-up pool (§7's sample reuse) consumes its own copy.
func (e *Estimator) Clone() *Estimator {
	c := e.shell()
	for j, je := range e.ests {
		c.ests[j] = je.clone()
	}
	return c
}

// shell returns an estimator over e's joins with no per-join state yet.
func (e *Estimator) shell() *Estimator {
	return &Estimator{
		joins:  e.joins,
		opts:   e.opts,
		ests:   make([]*JoinEstimate, len(e.ests)),
		owners: e.owners,
	}
}

// CopyEstimates makes e an independent copy of src's estimates with no
// retained walks, written into the storage e already owns (the zero
// Estimator owns none and allocates it). Prepared sessions start every
// run from the shared warm-up this way — sharing warm-up tuples across
// runs would correlate streams that are documented as independent — and
// a recycled run pays a few word copies for it instead of a fresh
// estimator.
func (e *Estimator) CopyEstimates(src *Estimator) {
	if len(e.ests) != len(src.ests) {
		*e = *src.shell()
		for j := range e.ests {
			e.ests[j] = new(JoinEstimate)
		}
	}
	for j, from := range src.ests {
		to := e.ests[j]
		to.J, to.walker = from.J, from.walker
		to.n, to.size, to.cover = from.n, from.size, from.cover
		to.samples, to.rows = to.samples[:0], to.rows[:0]
	}
}

// Refreshed returns the estimator a refresh continues from when the
// relations of the joins marked dirty have mutated, leaving e untouched
// (runs cloned from it keep their snapshot). A dirty join starts over: its
// walks observed data that no longer exists, and the caller walks it
// again. A clean join keeps its walk count, size estimate and retained
// walks — p(t) of a walk depends on the join's own relations only — but
// a dirty join may have gained or lost those walks' tuples, so each
// retained walk's owner is derived again (join.Owners.Reowned) and the
// join's cover estimate afresh from the pool. A walk's tuple is rebuilt
// from its rows only when Reowned probes it. The pool is shared with e's
// until an owner moves, and its owners copied then. A dirty join's new
// pool is sized from its old one (JoinEstimate.reserve). It also reports
// how many walks it probed again: those passed to Reowned, not the ones
// Owners.Unmoved spares.
func (e *Estimator) Refreshed(dirty []bool) (*Estimator, int) {
	c := e.shell()
	for j, d := range dirty {
		if d {
			c.ests[j] = NewJoinEstimate(e.joins[j])
			c.ests[j].reserve(len(e.ests[j].samples), e.opts.MaxWalks)
		} else {
			c.ests[j] = e.ests[j].share()
		}
	}
	if !slices.Contains(dirty, true) {
		return c, 0
	}
	reprobed := 0
	var t relation.Tuple
	for j, je := range c.ests {
		if dirty[j] || len(je.samples) == 0 {
			continue
		}
		shared := true
		for i, s := range je.samples {
			if c.owners.Unmoved(j, s.Owner, dirty) {
				continue
			}
			reprobed++
			if t == nil {
				t = make(relation.Tuple, je.J.OutputSchema().Len())
			}
			je.fill(i, t)
			owner := c.owners.Reowned(j, t, s.Owner, dirty)
			if owner == s.Owner {
				continue
			}
			if shared {
				je.samples, shared = slices.Clone(je.samples), false
			}
			je.samples[i].Owner = owner
		}
		je.rederiveCover(j)
	}
	return c, reprobed
}

// StepJoin is WalkJoin retained, as the warm-up walks: a successful walk
// joins the join estimate's pool as its row ids — what §7's sample reuse
// draws and a refresh probes again. Every walk of one pool reads the
// residual state its first one did.
func (e *Estimator) StepJoin(j int, t relation.Tuple, g *rng.RNG) (Sample, bool) {
	je := e.ests[j]
	if len(je.samples) == 0 {
		je.res = je.J.ResidualPart().View()
	}
	s, ok := e.step(j, je.res, t, true, g)
	if ok {
		je.keep(s)
	}
	return s, ok
}

// WalkJoin performs one walk of join j into t, retaining nothing. While
// the caller still refines its parameters the sample carries its owner
// and the walk is folded into j's estimates; once nothing will read them
// again (Algorithm 2, line 18: updates stop at confidence γ) no other
// join is probed, nothing is folded in and Owner is -1.
func (e *Estimator) WalkJoin(j int, t relation.Tuple, refining bool, g *rng.RNG) (Sample, bool) {
	return e.step(j, e.joins[j].ResidualPart().View(), t, refining, g)
}

// step is one walk of join j into t, reading the residual state rv.
func (e *Estimator) step(j int, rv join.ResView, t relation.Tuple, refining bool, g *rng.RNG) (Sample, bool) {
	je := e.ests[j]
	p, ok := je.walk(rv, t, g)
	if !ok {
		if refining {
			je.observe(0, 0)
		}
		return Sample{}, false
	}
	s := Sample{P: p, Owner: -1}
	if refining {
		s.Owner = e.owners.Owner(j, t)
		je.observe(1/p, coverObservation(s, j))
	}
	return s, true
}

// Warmup walks every join that has no observations yet — all of them on
// a new estimator, the reset ones after Refreshed — until the confidence
// target on its cover size is met or the walk budget runs out (§6.1's
// termination rule).
func (e *Estimator) Warmup(g *rng.RNG) {
	t := make(relation.Tuple, e.joins[0].OutputSchema().Len())
	for j, je := range e.ests {
		if je.Walks() > 0 {
			continue
		}
		for je.Walks() < e.opts.MaxWalks {
			e.StepJoin(j, t, g)
			if je.Walks() >= e.opts.MinWalks && je.CoverRelHalfWidth(e.opts.Z) < e.opts.TargetRel {
				break
			}
		}
	}
}

// Z returns the estimator's (defaulted) confidence multiplier, so
// callers evaluate half-widths at the same level the warm-up did.
func (e *Estimator) Z() float64 { return e.opts.Z }

// Confidence reports the smallest relative confidence achieved across
// the joins' cover estimates: 1 − CoverRelHalfWidth, clamped at 0. The
// online sampler uses it as the γ of Algorithm 2.
func (e *Estimator) Confidence(z float64) float64 {
	worst := 1.0
	for _, je := range e.ests {
		worst = min(worst, 1-je.CoverRelHalfWidth(z))
	}
	return max(worst, 0)
}
