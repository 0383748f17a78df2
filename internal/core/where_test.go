package core

import (
	"math"
	"testing"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

func TestSampleWhereUniformOverSubset(t *testing.T) {
	joins := fixtureJoins(t)
	s := coverRun(t, joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &ExactEstimator{Joins: joins},
	})
	schema := joins[0].OutputSchema()
	pred := relation.Cmp{Attr: "K", Op: relation.LT, Val: 40}
	g := rng.New(21)
	const n = 30000
	out, err := SampleWhere(s, schema, pred, n, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d", len(out))
	}
	// Uniformity over the satisfying subset of the union.
	idx := unionIndex(t, joins)
	satisfying := make(map[string]int)
	kPos := schema.Index("K")
	counts := make(map[string]int)
	for _, tu := range out {
		if tu[kPos] >= 40 {
			t.Fatalf("predicate violated: %v", tu)
		}
		k := relation.TupleKey(tu)
		if _, ok := idx[k]; !ok {
			t.Fatalf("sample outside union: %v", tu)
		}
		counts[k]++
		satisfying[k] = 0
	}
	// All satisfying union values should appear; chi-square over them.
	cells := len(satisfying)
	expected := float64(n) / float64(cells)
	chi := 0.0
	for k := range satisfying {
		d := float64(counts[k]) - expected
		chi += d * d / expected
	}
	dof := float64(cells - 1)
	if limit := dof + 6*math.Sqrt(2*dof) + 6; chi > limit {
		t.Errorf("conditional chi2 = %.1f over %.0f dof (limit %.1f)", chi, dof, limit)
	}
}

func TestSampleWhereEmptySupport(t *testing.T) {
	joins := fixtureJoins(t)
	s := coverRun(t, joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &ExactEstimator{Joins: joins},
	})
	pred := relation.Cmp{Attr: "K", Op: relation.GT, Val: 10000}
	_, err := SampleWhere(s, joins[0].OutputSchema(), pred, 10, rng.New(22), 500)
	if err == nil {
		t.Fatal("empty-support predicate did not fail")
	}
}

func TestSampleStreaming(t *testing.T) {
	// Consecutive Sample calls must continue the stream, not replay it:
	// with a seeded RNG the concatenation of two calls equals one big
	// call only in distribution, so check non-replay directly via the
	// accepted counter.
	joins := fixtureJoins(t)
	s := coverRun(t, joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &ExactEstimator{Joins: joins},
	})
	g := rng.New(23)
	a, err := s.Sample(100, g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Sample(100, g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Accepted < 200 {
		t.Fatalf("accepted = %d; second call replayed the buffer", s.Stats().Accepted)
	}
	// Both batches are valid union tuples.
	idx := unionIndex(t, joins)
	for _, tu := range append(a, b...) {
		if _, ok := idx[relation.TupleKey(tu)]; !ok {
			t.Fatalf("invalid tuple %v", tu)
		}
	}
}

func TestOnlineSampleStreaming(t *testing.T) {
	joins := fixtureJoins(t)
	s := onlineReuseRun(t, joins, OnlineConfig{WarmupWalks: 200, Phi: 100})
	g := rng.New(24)
	if _, err := s.Sample(150, g); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(150, g); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Accepted < 300 {
		t.Fatalf("accepted = %d; online stream replayed", s.Stats().Accepted)
	}
}
