// Package core implements the paper's primary contribution: the union
// sampling framework of §3 and §7. It contains the disjoint-union
// sampler (Definition 1), the Bernoulli set-union sampler (the union
// trick of §3), the non-Bernoulli cover sampler (Algorithm 1), and the
// online union sampler with sample reuse and backtracking (Algorithm 2).
// Warm-up parameters come from pluggable estimators: histogram-based
// (§5), random-walk (§6), or exact full-join ground truth (§9's
// FullJoinUnion baseline).
package core

import (
	"fmt"

	"sampleunion/internal/histest"
	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/walkest"
)

// Params are the framework parameters the warm-up phase produces, all
// Algorithm 1 needs: the join sizes, the cover sizes, and the union size
// they sum to. Algorithm 1 picks join j with probability |J'_j| / Σ|J'|,
// so Σ Cover is the only union size consistent with its draws; every
// warm-up reports sizes and covers and NewParams sums them.
type Params struct {
	JoinSizes []float64 // |J_j| (or its instantiation-specific bound)
	Cover     []float64 // |J'_j| per §3.1's cover
	UnionSize float64   // |U| = Σ Cover, summed in join order
}

// NewParams returns the parameters of a warm-up that estimated the given
// join and cover sizes; it keeps both slices.
func NewParams(joinSizes, cover []float64) *Params {
	p := &Params{JoinSizes: joinSizes, Cover: cover}
	for _, c := range cover {
		p.UnionSize += c
	}
	return p
}

// RatioError reports |est/|U|_est - truth/|U|_truth| for join j — the
// error metric of Fig 4a/4b and Fig 5a (the framework's probability
// distributions depend on this ratio, §9.1.1).
func (p *Params) RatioError(j int, truth *Params) float64 {
	if p.UnionSize == 0 || truth.UnionSize == 0 {
		return 1
	}
	est := p.JoinSizes[j] / p.UnionSize
	tru := truth.JoinSizes[j] / truth.UnionSize
	d := est - tru
	if d < 0 {
		d = -d
	}
	return d
}

// Estimator is the pluggable warm-up: anything that can produce Params
// for a union of joins.
type Estimator interface {
	// Params runs the warm-up and returns framework parameters.
	Params(g *rng.RNG) (*Params, error)
}

// HistogramEstimator adapts histest (§5) to the framework: statistics
// only, no data access, near-zero setup cost.
type HistogramEstimator struct {
	Joins []*join.Join
	Opts  histest.Options
}

// Params implements Estimator.
func (h *HistogramEstimator) Params(*rng.RNG) (*Params, error) {
	est, err := histest.New(h.Joins, h.Opts)
	if err != nil {
		return nil, err
	}
	t, err := est.Estimate()
	if err != nil {
		return nil, err
	}
	return NewParams(t.JoinSizes(), t.CoverSizes()), nil
}

// RandomWalkEstimator adapts walkest (§6): warm-up walks buy accurate
// parameters and seed the reuse pool of Algorithm 2.
type RandomWalkEstimator struct {
	Joins []*join.Join
	Opts  walkest.Options

	// Walker is populated by Params and retained so the online sampler
	// can reuse warm-up samples and keep refining estimates.
	Walker *walkest.Estimator

	// resume: Walker is a predecessor's state carried over a refresh
	// (refreshedEstimator), for the next Params to continue from instead
	// of starting over.
	resume bool
}

// Params implements Estimator: a cold warm-up that walks every join —
// or, on the estimator a refresh carried over, only the joins whose
// estimates the refresh reset.
func (r *RandomWalkEstimator) Params(g *rng.RNG) (*Params, error) {
	if !r.resume {
		est, err := walkest.New(r.Joins, r.Opts)
		if err != nil {
			return nil, err
		}
		r.Walker = est
	}
	r.resume = false
	r.Walker.Warmup(g)
	return paramsFromWalks(r.Walker), nil
}

// paramsFromWalks reads Params off a walk estimator: the Horvitz–Thompson
// join and cover sizes, and Û = Σ ĉ_j, so the union size is the one the
// cover draws by.
func paramsFromWalks(w *walkest.Estimator) *Params {
	ests := w.JoinEstimates()
	sizes, cover := make([]float64, len(ests)), make([]float64, len(ests))
	for j, je := range ests {
		sizes[j], cover[j] = je.Size(), je.Cover()
	}
	return NewParams(sizes, cover)
}

// refreshedEstimator returns the estimator the next generation of a
// prepared sampler warms with, and how many retained walks it probed
// again. A walked estimator carries its state over under walkest's
// refresh rule (Estimator.Refreshed): dirty joins' estimates reset,
// clean joins keep theirs and their retained walks, whose owners are
// re-derived. The others hold no state and re-run.
func refreshedEstimator(est Estimator, dirty []bool) (Estimator, int) {
	if e, ok := est.(*RandomWalkEstimator); ok && e.Walker != nil {
		walker, reprobed := e.Walker.Refreshed(dirty)
		return &RandomWalkEstimator{Joins: e.Joins, Opts: e.Opts, Walker: walker, resume: true}, reprobed
	}
	return est, 0
}

// walksRun counts the walks a refresh added to next over prev: all a
// dirty join holds (its estimate was reset), and whatever a clean join
// gained.
func walksRun(prev, next *walkest.Estimator, dirty []bool) int {
	if next == nil {
		return 0
	}
	n := 0
	for j, je := range next.JoinEstimates() {
		n += je.Walks()
		if prev != nil && !dirty[j] {
			n -= prev.JoinEstimates()[j].Walks()
		}
	}
	return n
}

// ExactEstimator counts exact parameters — the FullJoinUnion ground
// truth (§9). It enumerates each join once, join beside join, and probes
// every result's owner (join.Owners): |J_j| counts j's results and c_j
// those no earlier join contains. Its cost is the joins' output times at
// most j−1 membership probes per result of join j, allocating nothing per
// result. Relations are duplicate-free (§3), so a join's results are
// distinct and the counts are set sizes.
type ExactEstimator struct {
	Joins []*join.Join
}

// Params implements Estimator.
func (e *ExactEstimator) Params(*rng.RNG) (*Params, error) {
	owners, err := join.NewOwners(e.Joins)
	if err != nil {
		return nil, err
	}
	sizes, cover := make([]float64, len(e.Joins)), make([]float64, len(e.Joins))
	join.FanOut(0, len(e.Joins), func(j int) {
		var n, c int64
		e.Joins[j].Enumerate(func(t relation.Tuple) bool {
			n++
			if owners.Owner(j, t) == j {
				c++
			}
			return true
		})
		sizes[j], cover[j] = float64(n), float64(c)
	})
	return NewParams(sizes, cover), nil
}

// ValidateUnion checks the joins form a well-defined union query: at
// least one join, each producing the first join's output attributes.
func ValidateUnion(joins []*join.Join) error {
	if len(joins) == 0 {
		return fmt.Errorf("core: no joins")
	}
	ref := joins[0].OutputSchema()
	for _, j := range joins[1:] {
		s := j.OutputSchema()
		if s.Len() != ref.Len() {
			return fmt.Errorf("core: join %s output arity %d, want %d", j.Name(), s.Len(), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			if !s.Has(ref.Attr(i)) {
				return fmt.Errorf("core: join %s lacks output attribute %q", j.Name(), ref.Attr(i))
			}
		}
	}
	return nil
}
