package sampleunion

import (
	"sampleunion/internal/aqp"
)

// AggResult is an approximate-aggregate estimate with its confidence
// half-width.
type AggResult = aqp.Result

// DefaultZ is the 95% confidence multiplier used when Options leave it
// unset in the Approx* helpers.
const DefaultZ = 1.96

// ApproxCount estimates COUNT(*) WHERE pred over the set union from n
// uniform samples — the approximate-query-answering use case of the
// paper's introduction. One warm-up serves both the |U| estimate and
// the sampling run, and the sample set is drawn in one Sample call; to
// serve many aggregates from the same warm-up, Prepare a Session and
// use its Approx* methods. As there, the interval covers the sampling
// noise of the n draws, not the error of the warm-up's parameters (see
// Session.ApproxCount).
func (u *Union) ApproxCount(pred Predicate, n int, o Options) (AggResult, error) {
	s, err := u.prepare(o, false)
	if err != nil {
		return AggResult{}, err
	}
	return s.ApproxCount(pred, n)
}

// ApproxSum estimates SUM(attr) WHERE pred over the set union.
func (u *Union) ApproxSum(attr string, pred Predicate, n int, o Options) (AggResult, error) {
	s, err := u.prepare(o, false)
	if err != nil {
		return AggResult{}, err
	}
	return s.ApproxSum(attr, pred, n)
}

// ApproxAvg estimates AVG(attr) WHERE pred over the set union. AVG is
// a ratio estimator, so |U| cancels and only the samples matter.
func (u *Union) ApproxAvg(attr string, pred Predicate, n int, o Options) (AggResult, error) {
	s, err := u.prepare(o, false)
	if err != nil {
		return AggResult{}, err
	}
	return s.ApproxAvg(attr, pred, n)
}

// GroupEstimate is one group of ApproxGroupCount.
type GroupEstimate = aqp.Group

// ApproxGroupCount estimates COUNT(*) GROUP BY attr over the set
// union, descending by estimated group size. Groups rarer than about
// |U|/n are expected to be missing from the result.
func (u *Union) ApproxGroupCount(attr string, n int, o Options) ([]GroupEstimate, error) {
	s, err := u.prepare(o, false)
	if err != nil {
		return nil, err
	}
	return s.ApproxGroupCount(attr, n)
}
