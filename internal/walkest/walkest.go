// Package walkest implements the random-walk instantiation of the
// union-sampling framework (§6): join sizes by Horvitz–Thompson
// estimation over Wander-Join walks (§6.1), join overlaps from the
// weighted fraction of one join's walk samples contained in the others
// (§6.2), confidence intervals for the sizes, and the warm-up's retained
// walks: the pool §7's sample reuse draws from and a refresh probes again.
package walkest

import (
	"fmt"
	"maps"
	"math"
	"math/bits"

	"sampleunion/internal/join"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/overlap"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// Sample is one successful walk: the result tuple, its walk probability
// p(t), and Mask, the set of joins containing the tuple (bit i for join
// i, its own included) as the Estimator that walked it last probed them —
// zero when it did not (WalkJoin).
type Sample struct {
	Tuple relation.Tuple
	P     float64
	Mask  uint
}

// JoinEstimate maintains the running Horvitz–Thompson estimate of one
// join's size: over n walks (failed walks contributing 0), the mean of
// 1/p(t) is an unbiased estimator of |J| (§6.1). Mean and variance are
// tracked with Welford's algorithm so the estimate updates in O(1) per
// walk, matching the paper's real-time update rule.
type JoinEstimate struct {
	J       *join.Join
	walker  *joinsample.Walker
	n       int
	mean    float64
	m2      float64
	samples []Sample

	// Scratch, private to this estimate (clone drops it): slab is the
	// unused rest of the chunk retain carves tuples from — one
	// allocation per slabTuples retained walks, each tuple immutable and
	// separately addressable — and rowOf is WalkInto's per-node rows.
	slab  relation.Tuple
	rowOf []int
}

// slabTuples is the number of retained walk tuples carved from one chunk.
const slabTuples = 64

// NewJoinEstimate prepares an empty estimate for j.
func NewJoinEstimate(j *join.Join) *JoinEstimate {
	return &JoinEstimate{J: j, walker: joinsample.NewWalker(j)}
}

// Walk performs one wander-join walk into t — the caller's, one output
// tuple wide — folds it into the estimate, and returns p(t) when the walk
// succeeded. Nothing is retained.
func (e *JoinEstimate) Walk(t relation.Tuple, g *rng.RNG) (float64, bool) {
	if e.rowOf == nil {
		e.rowOf = make([]int, len(e.J.Nodes()))
	}
	p, ok := e.walker.WalkInto(t, e.rowOf, g)
	if !ok {
		e.Observe(0)
		return 0, false
	}
	e.Observe(1 / p)
	return p, true
}

// retain carves the tuple of the next retained walk from the estimate's
// own chunk; keep adds the walk, once it has succeeded there, to the pool.
func (e *JoinEstimate) retain() relation.Tuple {
	width := e.J.OutputSchema().Len()
	if len(e.slab) < width {
		e.slab = make(relation.Tuple, slabTuples*width)
	}
	return e.slab[:width:width]
}

func (e *JoinEstimate) keep(s Sample) {
	e.slab = e.slab[len(s.Tuple):]
	e.samples = append(e.samples, s)
}

// Observe folds one Horvitz–Thompson observation (1/p for a successful
// walk, 0 for a failed one) into the running mean and variance. The
// online sampler calls it directly when it reuses its own draws to
// refine parameters (§7).
func (e *JoinEstimate) Observe(invP float64) {
	e.n++
	d := invP - e.mean
	e.mean += d / float64(e.n)
	e.m2 += d * (invP - e.mean)
}

// RelHalfWidth is the confidence half-width relative to the size
// estimate. It is +Inf before any walk and when the size estimate is
// zero.
func (e *JoinEstimate) RelHalfWidth(z float64) float64 {
	if e.n == 0 || e.mean <= 0 {
		return math.Inf(1)
	}
	return e.HalfWidth(z) / e.mean
}

// Walks reports the number of observations folded in so far.
func (e *JoinEstimate) Walks() int { return e.n }

// Size returns the current |J| estimate (0 before any walk).
func (e *JoinEstimate) Size() float64 { return e.mean }

// Variance returns the sample variance of the HT observations — the
// T_{n,2} term of §6.2's variance expression.
func (e *JoinEstimate) Variance() float64 {
	if e.n < 2 {
		return 0
	}
	return e.m2 / float64(e.n-1)
}

// HalfWidth returns the z·σ/√n confidence half-width of the size
// estimate (§6.1).
func (e *JoinEstimate) HalfWidth(z float64) float64 {
	if e.n == 0 {
		return math.Inf(1)
	}
	return z * math.Sqrt(e.Variance()) / math.Sqrt(float64(e.n))
}

// Samples returns the retained successful walks. The slice is shared: a
// reuse run consumes it as its pool.
func (e *JoinEstimate) Samples() []Sample { return e.samples }

// TakeSample removes and returns the sample at index i (order is not
// preserved): sample reuse is without replacement (§7).
func (e *JoinEstimate) TakeSample(i int) Sample {
	s := e.samples[i]
	last := len(e.samples) - 1
	e.samples[i] = e.samples[last]
	e.samples = e.samples[:last]
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
	// half-width falls below TargetRel × size estimate. Values <= 0
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

// Estimator runs the warm-up phase for a union of joins and produces
// the overlap table. Overlap statistics are accumulated incrementally
// as walks happen (a per-join map from membership bitmask to summed
// 1/p weight), so they survive the online sampler consuming the reuse
// pool.
type Estimator struct {
	joins   []*join.Join
	ests    []*JoinEstimate
	opts    Options
	wByMask []map[uint]float64 // per join: membership mask -> Σ 1/p
	wAll    []float64          // per join: Σ 1/p over successful walks

	// probes[j][i] tests a join-j walk tuple against join i without
	// re-deriving the schema alignment per walk (nil when i == j or the
	// schemas are not alignable, which counts as not contained — the
	// same answer ContainsAligned gives). Immutable, shared by clones.
	probes [][]*join.AlignedProbe
}

// New prepares a random-walk estimator over the joins.
func New(joins []*join.Join, opts Options) (*Estimator, error) {
	if len(joins) == 0 {
		return nil, fmt.Errorf("walkest: no joins")
	}
	e := &Estimator{joins: joins, opts: opts.withDefaults()}
	for _, j := range joins {
		e.ests = append(e.ests, NewJoinEstimate(j))
		e.wByMask = append(e.wByMask, make(map[uint]float64))
		e.wAll = append(e.wAll, 0)
	}
	e.probes = make([][]*join.AlignedProbe, len(joins))
	for j, src := range joins {
		e.probes[j] = make([]*join.AlignedProbe, len(joins))
		for i, other := range joins {
			if i == j {
				continue
			}
			if p, ok := other.AlignProbe(src.OutputSchema()); ok {
				e.probes[j][i] = &p
			}
		}
	}
	return e, nil
}

// JoinEstimates exposes the per-join estimates (for sample reuse and
// for the online sampler's refinement loop).
func (e *Estimator) JoinEstimates() []*JoinEstimate { return e.ests }

// clone returns an independent copy of the estimate: the running
// moments by value, the sample pool by slice copy (tuples themselves are
// immutable and shared), and the stateless walker by reference; the walk
// scratch stays behind, so two estimates never write one chunk.
func (e *JoinEstimate) clone() *JoinEstimate {
	c := *e
	c.slab, c.rowOf = nil, nil
	c.samples = append([]Sample(nil), e.samples...)
	return &c
}

// Clone returns an independent deep copy of the estimator's mutable
// state: per-join estimates, reuse pools, and overlap counters. The one
// run that owns the warm-up pool (§7's sample reuse) consumes its own
// copy. Retained sample tuples are shared read-only.
func (e *Estimator) Clone() *Estimator {
	c := e.shell()
	for j := range e.ests {
		c.adopt(e, j)
	}
	return c
}

// shell returns an estimator over e's joins with no per-join state yet.
func (e *Estimator) shell() *Estimator {
	return &Estimator{
		joins:   e.joins,
		opts:    e.opts,
		ests:    make([]*JoinEstimate, len(e.ests)),
		wByMask: make([]map[uint]float64, len(e.ests)),
		wAll:    make([]float64, len(e.ests)),
		probes:  e.probes,
	}
}

// adopt gives c its own copy of src's state for join j.
func (c *Estimator) adopt(src *Estimator, j int) {
	c.ests[j] = src.ests[j].clone()
	c.wByMask[j] = maps.Clone(src.wByMask[j])
	c.wAll[j] = src.wAll[j]
}

// CopyEstimates makes e an independent copy of src's size estimates and
// overlap counters with no retained walks, written into the storage e
// already owns (the zero Estimator owns none and allocates it). Prepared
// sessions start every run from the shared warm-up this way — sharing
// warm-up tuples across runs would correlate streams that are documented
// as independent — and a recycled run pays a few word copies for it
// instead of a fresh estimator.
func (e *Estimator) CopyEstimates(src *Estimator) {
	if len(e.ests) != len(src.ests) {
		*e = *src.shell()
		for j := range e.ests {
			e.ests[j] = new(JoinEstimate)
			e.wByMask[j] = make(map[uint]float64, len(src.wByMask[j]))
		}
	}
	copy(e.wAll, src.wAll)
	for j, from := range src.ests {
		to := e.ests[j]
		to.J, to.walker = from.J, from.walker
		to.n, to.mean, to.m2 = from.n, from.mean, from.m2
		to.samples = to.samples[:0]
		clear(e.wByMask[j])
		maps.Copy(e.wByMask[j], src.wByMask[j])
	}
}

// Refreshed returns the estimator a refresh continues from when the
// relations of the joins marked dirty have mutated, leaving e untouched
// (runs cloned from it keep their snapshot). A dirty join starts over: its
// walks observed data that no longer exists, and the caller walks it
// again. A clean join keeps its Horvitz–Thompson state and its retained
// walks — p(t) of a walk depends on the join's own relations only — but
// whether a dirty join contains those walks' tuples may have moved, so
// each retained walk's mask is probed again against the dirty joins and
// the join's overlap counters are summed afresh over the pool. It also
// reports how many walks it probed again.
func (e *Estimator) Refreshed(dirty []bool) (*Estimator, int) {
	c := e.shell()
	var moved uint
	for j, d := range dirty {
		if d {
			c.ests[j], c.wByMask[j] = NewJoinEstimate(e.joins[j]), make(map[uint]float64)
			moved |= 1 << uint(j)
		} else {
			c.adopt(e, j)
		}
	}
	if moved == 0 {
		return c, 0
	}
	reprobed := 0
	for j, je := range c.ests {
		if dirty[j] || len(je.samples) == 0 {
			continue
		}
		byMask, all := make(map[uint]float64, len(c.wByMask[j])), 0.0
		for i := range je.samples {
			s := &je.samples[i]
			s.Mask &^= moved
			for o, p := range c.probes[j] {
				if dirty[o] && p != nil && p.Contains(s.Tuple) {
					s.Mask |= 1 << uint(o)
				}
			}
			byMask[s.Mask] += 1 / s.P
			all += 1 / s.P
		}
		c.wByMask[j], c.wAll[j] = byMask, all
		reprobed += len(je.samples)
	}
	return c, reprobed
}

// StepJoin is WalkJoin retained, as the warm-up walks: the tuple lands in
// the join estimate's own chunk and a successful walk joins its pool —
// what §7's sample reuse draws and a refresh probes again.
func (e *Estimator) StepJoin(j int, g *rng.RNG) (Sample, bool) {
	s, ok := e.WalkJoin(j, e.ests[j].retain(), true, g)
	if ok {
		e.ests[j].keep(s)
	}
	return s, ok
}

// WalkJoin performs one walk of join j into t, retaining nothing
// (JoinEstimate.Walk). While the caller still refines its parameters the
// walk feeds the overlap counters too and the sample carries its mask;
// once nothing will read the counters again (Algorithm 2, line 18: updates
// stop at confidence γ) no other join is probed and Mask stays zero.
func (e *Estimator) WalkJoin(j int, t relation.Tuple, refining bool, g *rng.RNG) (Sample, bool) {
	p, ok := e.ests[j].Walk(t, g)
	if !ok {
		return Sample{}, false
	}
	s := Sample{Tuple: t, P: p}
	if refining {
		s.Mask = e.foldMask(j, t, p)
	}
	return s, true
}

// foldMask probes t, a successful walk of join j with probability p,
// against every other join's index (§6.2's containment check), adds it to
// j's overlap counters and returns the mask.
func (e *Estimator) foldMask(j int, t relation.Tuple, p float64) uint {
	mask := uint(1) << uint(j)
	for i, pr := range e.probes[j] {
		if pr != nil && pr.Contains(t) {
			mask |= 1 << uint(i)
		}
	}
	e.wByMask[j][mask] += 1 / p
	e.wAll[j] += 1 / p
	return mask
}

// Warmup walks every join that has no observations yet — all of them on
// a new estimator, the reset ones after Refreshed — until its size
// confidence target is met or the walk budget runs out (§6.1's
// termination rule).
func (e *Estimator) Warmup(g *rng.RNG) {
	for j, je := range e.ests {
		if je.Walks() > 0 {
			continue
		}
		for je.Walks() < e.opts.MaxWalks {
			e.StepJoin(j, g)
			if je.Walks() >= e.opts.MinWalks &&
				je.Size() > 0 &&
				je.HalfWidth(e.opts.Z) < e.opts.TargetRel*je.Size() {
				break
			}
		}
	}
}

// Z returns the estimator's (defaulted) confidence multiplier, so
// callers evaluate half-widths at the same level the warm-up did.
func (e *Estimator) Z() float64 { return e.opts.Z }

// Table assembles the overlap table from the warm-up state: singleton
// sizes from the HT estimates, each subset Δ from the §6.2 rule
// |O_Δ| = |J_j| · (Σ_{t ∈ S_j ∩ all} 1/p(t)) / (Σ_{t ∈ S_j} 1/p(t))
// anchored at the subset's smallest join index.
func (e *Estimator) Table() (*overlap.Table, error) {
	t, err := overlap.NewTable(len(e.joins))
	if err != nil {
		return nil, err
	}
	for i, je := range e.ests {
		t.Set(1<<uint(i), je.Size())
	}
	full := uint(1)<<uint(len(e.joins)) - 1
	for mask := uint(3); mask <= full; mask++ {
		if mask&(mask-1) == 0 {
			continue // singleton
		}
		t.Set(mask, e.OverlapEstimate(mask))
	}
	t.Normalize()
	return t, nil
}

// OverlapEstimate computes the §6.2 overlap estimate for the subset
// mask, anchoring on the smallest join index in the subset: the
// weighted fraction of the anchor's walk samples contained in every
// other join of the subset, scaled by the anchor's size estimate.
func (e *Estimator) OverlapEstimate(mask uint) float64 {
	anchor := bits.TrailingZeros(mask)
	if anchor >= len(e.joins) || e.wAll[anchor] == 0 {
		return 0
	}
	var wIn float64
	for m, w := range e.wByMask[anchor] {
		if m&mask == mask {
			wIn += w
		}
	}
	return e.ests[anchor].Size() * wIn / e.wAll[anchor]
}

// Confidence reports the smallest relative confidence achieved across
// the joins' size estimates: 1 - halfWidth/size, clamped to [0, 1]. The
// online sampler uses it as the γ of Algorithm 2.
func (e *Estimator) Confidence(z float64) float64 {
	worst := 1.0
	for _, je := range e.ests {
		if je.Size() <= 0 {
			return 0
		}
		c := 1 - je.HalfWidth(z)/je.Size()
		if c < 0 {
			c = 0
		}
		if c < worst {
			worst = c
		}
	}
	return worst
}
