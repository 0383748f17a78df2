package core

import (
	"math"
	"testing"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// TestSampleIndependence checks the i.i.d. half of Theorem 1: under
// exact parameters consecutive samples are independent. We test lag-1 independence with a chi-square over the
// joint distribution of (coarse cell of sample i, coarse cell of
// sample i+1): under independence it is the product of the marginals.
func TestSampleIndependence(t *testing.T) {
	joins := fixtureJoins(t)
	s := coverRun(t, joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &ExactEstimator{Joins: joins},
	})
	const n = 60000
	out, err := s.Sample(n, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	idx := unionIndex(t, joins)
	// Coarsen the union into B buckets to keep the joint table dense.
	const B = 8
	bucket := make([]int, n)
	for i, tu := range out {
		bucket[i] = idx[relation.TupleKey(tu)] % B
	}
	var joint [B][B]float64
	var marg [B]float64
	for i := 0; i+1 < n; i++ {
		joint[bucket[i]][bucket[i+1]]++
		marg[bucket[i]]++
	}
	marg[bucket[n-1]]++
	total := float64(n - 1)
	chi := 0.0
	for a := 0; a < B; a++ {
		for b := 0; b < B; b++ {
			expected := (marg[a] / float64(n)) * (marg[b] / float64(n)) * total
			if expected < 5 {
				continue
			}
			d := joint[a][b] - expected
			chi += d * d / expected
		}
	}
	dof := float64((B - 1) * (B - 1))
	limit := dof + 6*math.Sqrt(2*dof) + 6
	if chi > limit {
		t.Errorf("lag-1 dependence: chi2 = %.1f over %.0f dof (limit %.1f)", chi, dof, limit)
	}
}

// TestEOAcceptanceRate: EO's acceptance rate equals |J|/bound in
// expectation — the mechanism behind the Fig 5 rejection costs.
func TestEOAcceptanceRate(t *testing.T) {
	joins := fixtureJoins(t)
	j := joins[0]
	s, _ := newJoinSampler(j, MethodEO, nil)
	g := rng.New(62)
	const tries = 200000
	out := []relation.Tuple{make(relation.Tuple, j.OutputSchema().Len())}
	rowOf := make([]int, len(j.Nodes()))
	accepted := 0
	for done := 0; done < tries; {
		got, tr := s.SampleManyInto(out, rowOf, tries-done, g)
		accepted += got
		done += tr
	}
	got := float64(accepted) / tries
	want := float64(j.Count()) / j.OlkenBound()
	if math.Abs(got-want) > 0.01 {
		t.Errorf("EO acceptance = %.4f, want %.4f", got, want)
	}
}
