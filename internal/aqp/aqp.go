// Package aqp implements approximate query answering over union
// samples — the application that motivates the paper (§1: "learning
// and approximate query answering do not require the full results and
// an i.i.d sample can achieve a bounded error"). Given uniform samples
// from the set union and an estimate of |U|, it answers COUNT, SUM,
// and AVG aggregates with central-limit confidence intervals.
package aqp

import (
	"fmt"
	"math"

	"sampleunion/internal/relation"
)

// Result is an aggregate estimate with its confidence half-width at
// the requested z (e.g. 1.96 for 95%).
type Result struct {
	Value     float64
	HalfWidth float64
	N         int // samples used

	size float64 // a count's |U| estimate, which bounds its interval; 0 otherwise
}

// Interval renders the estimate as [lo, hi]: Value ± HalfWidth, clamped
// for a count (Count, GroupCount) to [0, |U|], outside which no count
// lies.
func (r Result) Interval() (lo, hi float64) {
	lo, hi = r.Value-r.HalfWidth, r.Value+r.HalfWidth
	if r.size > 0 {
		lo, hi = max(lo, 0), min(hi, r.size)
	}
	return lo, hi
}

func (r Result) String() string {
	lo, hi := r.Interval()
	return fmt.Sprintf("%.4g ± %.4g [%.4g, %.4g] (n=%d)", r.Value, r.HalfWidth, lo, hi, r.N)
}

// Count estimates COUNT(*) WHERE pred over the union: |U| times the
// satisfying fraction of the samples. unionSize is the (estimated)
// set-union size; z the confidence multiplier.
func Count(samples []relation.Tuple, schema *relation.Schema, pred relation.Predicate, unionSize, z float64) (Result, error) {
	n := len(samples)
	if n == 0 {
		return Result{}, fmt.Errorf("aqp: no samples")
	}
	hits := 0
	for _, t := range samples {
		if pred.Eval(t, schema) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	// Binomial proportion: se = sqrt(p(1-p)/n), scaled by |U|. The Wald
	// width degenerates to exactly 0 at hits == 0 and hits == n —
	// claiming certainty from a finite sample — so the half-width is
	// floored by the Wilson score interval, which stays positive at the
	// edges (at hits == 0 its upper bound is z²/(n+z²), the continuous
	// analogue of the rule of three's 3/n at 95%).
	return Result{
		Value:     unionSize * p,
		HalfWidth: unionSize * binomialHalfWidth(hits, n, z),
		N:         n,
		size:      unionSize,
	}, nil
}

// binomialHalfWidth is the half-width (on the proportion scale) of the
// interval for hits successes in n trials: the Wald width, floored so
// the interval always covers the Wilson score interval around the
// point estimate hits/n. Shared by Count and GroupCount.
func binomialHalfWidth(hits, n int, z float64) float64 {
	p := float64(hits) / float64(n)
	hw := z * math.Sqrt(p*(1-p)/float64(n))
	lo, hi := wilson(hits, n, z)
	if d := hi - p; d > hw {
		hw = d
	}
	if d := p - lo; d > hw {
		hw = d
	}
	return hw
}

// wilson is the Wilson score interval for hits successes in n trials
// at confidence multiplier z. Unlike the Wald interval it never
// collapses to a point for finite n: at hits == 0 it is
// [0, z²/(n+z²)], the continuous analogue of the rule of three's 3/n
// upper bound at 95%.
func wilson(hits, n int, z float64) (lo, hi float64) {
	h, m := float64(hits), float64(n)
	center := (h + z*z/2) / (m + z*z)
	hw := z / (m + z*z) * math.Sqrt(h*(m-h)/m+z*z/4)
	return center - hw, center + hw
}

// Sum estimates SUM(attr) WHERE pred over the union: |U| times the
// mean of attr·[pred] over the samples.
func Sum(samples []relation.Tuple, schema *relation.Schema, attr string, pred relation.Predicate, unionSize, z float64) (Result, error) {
	pos := schema.Index(attr)
	if pos < 0 {
		return Result{}, fmt.Errorf("aqp: attribute %q not in schema %v", attr, schema)
	}
	n := len(samples)
	if n == 0 {
		return Result{}, fmt.Errorf("aqp: no samples")
	}
	mean, m2 := 0.0, 0.0
	for i, t := range samples {
		v := 0.0
		if pred.Eval(t, schema) {
			v = float64(t[pos])
		}
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
	}
	variance := 0.0
	if n > 1 {
		variance = m2 / float64(n-1)
	}
	se := math.Sqrt(variance / float64(n))
	return Result{
		Value:     unionSize * mean,
		HalfWidth: unionSize * z * se,
		N:         n,
	}, nil
}

// Avg estimates AVG(attr) WHERE pred over the union: the ratio of the
// Sum and Count estimators over the satisfying samples, with the
// conditional-mean standard error. It fails when no sample satisfies
// the predicate.
func Avg(samples []relation.Tuple, schema *relation.Schema, attr string, pred relation.Predicate, z float64) (Result, error) {
	pos := schema.Index(attr)
	if pos < 0 {
		return Result{}, fmt.Errorf("aqp: attribute %q not in schema %v", attr, schema)
	}
	mean, m2 := 0.0, 0.0
	k := 0
	for _, t := range samples {
		if !pred.Eval(t, schema) {
			continue
		}
		k++
		v := float64(t[pos])
		d := v - mean
		mean += d / float64(k)
		m2 += d * (v - mean)
	}
	if k == 0 {
		return Result{}, fmt.Errorf("aqp: no sample satisfies %s", pred)
	}
	variance := 0.0
	if k > 1 {
		variance = m2 / float64(k-1)
	}
	se := math.Sqrt(variance / float64(k))
	return Result{Value: mean, HalfWidth: z * se, N: k}, nil
}
