package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sampleunion/internal/histest"
	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// TestBernoulliEOProbabilitiesClamped: under EO bounds the selection
// probability uses bound/|U| with |U| >= max bound, so it stays a
// probability; the run must terminate and stay inside the union.
func TestBernoulliEOSampler(t *testing.T) {
	joins := fixtureJoins(t)
	s := bernoulliRun(t, joins, MethodEO, &HistogramEstimator{Joins: joins, Opts: histest.Options{Sizes: histest.SizeEO}})
	p := s.Params()
	for j := range joins {
		if p.JoinSizes[j] > p.UnionSize+1e-9 {
			t.Fatalf("selection probability %f > 1", p.JoinSizes[j]/p.UnionSize)
		}
	}
	idx := unionIndex(t, joins)
	out, err := s.Sample(1000, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range out {
		if _, ok := idx[relation.TupleKey(tu)]; !ok {
			t.Fatalf("EO Bernoulli produced non-union tuple %v", tu)
		}
	}
}

// TestCoverSamplerNoProgress: a join whose estimated cover is positive
// but whose data is empty must fail with a clear error instead of
// spinning.
func TestCoverSamplerNoProgress(t *testing.T) {
	empty := relation.New("E", relation.NewSchema("K", "X"))
	je, err := join.NewChain("JE", []*relation.Relation{empty}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := coverRun(t, []*join.Join{je}, CoverConfig{
		Method:    MethodEW,
		Estimator: &fakeEstimator{sizes: []float64{100}},
	})
	_, err = s.Sample(1, rng.New(34))
	if err == nil {
		t.Fatal("no-progress sampling succeeded")
	}
	if !strings.Contains(err.Error(), "no progress") {
		t.Errorf("unexpected error: %v", err)
	}
}

// deadJoin is R(K,X) = {(1,1)} ⋈ S(K,Y) = {(2,1)}: its Olken bound is 1
// and it has no result, so every subroutine draw from it fails.
func deadJoin(t *testing.T) *join.Join {
	t.Helper()
	r := relation.MustFromTuples("R", relation.NewSchema("K", "X"), []relation.Tuple{{1, 1}})
	s := relation.MustFromTuples("S", relation.NewSchema("K", "Y"), []relation.Tuple{{2, 1}})
	j, err := join.NewChain("dead", []*relation.Relation{r, s}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// failsWithin runs sample and requires it to return a "no progress"
// error before the deadline instead of spinning.
func failsWithin(t *testing.T, sample func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- sample() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "no progress") {
			t.Fatalf("sampling a union without results: err = %v, want a no-progress error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sampling a union without results did not return")
	}
}

// TestBernoulliSamplerNoProgress: a join whose bound is positive but
// which has no results must fail the Bernoulli run, not spin it.
func TestBernoulliSamplerNoProgress(t *testing.T) {
	joins := []*join.Join{deadJoin(t)}
	s := bernoulliRun(t, joins, MethodEO, &HistogramEstimator{Joins: joins, Opts: histest.Options{Sizes: histest.SizeEO}})
	failsWithin(t, func() error { _, err := s.Sample(1, rng.New(2)); return err })
}

// TestDisjointSamplerNoProgress is TestBernoulliSamplerNoProgress for
// Definition 1's sampler.
func TestDisjointSamplerNoProgress(t *testing.T) {
	s := disjointRun(t, []*join.Join{deadJoin(t)}, MethodEO)
	failsWithin(t, func() error { _, err := s.Sample(1, rng.New(2)); return err })
}

// fakeEstimator reports fabricated parameters, for failure-injection
// tests.
type fakeEstimator struct{ sizes []float64 }

func (f *fakeEstimator) Params(*rng.RNG) (*Params, error) {
	n := len(f.sizes)
	p := &Params{JoinSizes: f.sizes, Cover: f.sizes}
	for _, s := range f.sizes {
		p.UnionSize += s
	}
	_ = n
	return p, nil
}

// TestCoverSamplerZeroCoverFails: an all-zero cover is reported at
// warm-up.
func TestCoverSamplerZeroCoverFails(t *testing.T) {
	joins := fixtureJoins(t)
	_, err := PrepareCover(joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &fakeEstimator{sizes: []float64{0, 0, 0}},
	}, rng.New(35))
	if !errors.Is(err, ErrEmptyUnion) {
		t.Fatalf("zero cover: err = %v, want ErrEmptyUnion", err)
	}
}

// TestDisjointVsSetUnionSizes: disjoint sampling treats duplicates as
// distinct — the expected frequency of an overlap value is double its
// set-union frequency (two-join fixture regions).
func TestDisjointSamplerStats(t *testing.T) {
	joins := fixtureJoins(t)
	s := disjointRun(t, joins, MethodEW)
	if _, err := s.Sample(500, rng.New(36)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Accepted != 500 {
		t.Errorf("accepted = %d", st.Accepted)
	}
	if st.RejectedDup != 0 {
		t.Errorf("disjoint sampler rejected duplicates: %d", st.RejectedDup)
	}
	if st.TotalDraws < 500 {
		t.Errorf("draws = %d", st.TotalDraws)
	}
}

// TestOnlineGammaStopsBacktracking: once confidence reaches Gamma, no
// further parameter updates run.
func TestOnlineGammaStopsBacktracking(t *testing.T) {
	joins := fixtureJoins(t)
	s := onlineReuseRun(t, joins, OnlineConfig{
		WarmupWalks: 0,
		Phi:         10,
		Gamma:       0.01, // reached within the first few updates
	})
	g := rng.New(37)
	if _, err := s.Sample(2000, g); err != nil {
		t.Fatal(err)
	}
	reached := s.Stats().Backtracks
	if s.conf < 0.01 || reached == 0 || reached > 5 {
		t.Fatalf("confidence %.3f after %d backtracks, want gamma reached within a few", s.conf, reached)
	}
	if _, err := s.Sample(2000, g); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Backtracks; got != reached {
		t.Errorf("backtracks = %d, want %d: updates ran after gamma was reached", got, reached)
	}
}

// TestRandomWalkEstimatorRetainsWalker: the estimator must expose its
// walker so the online path can reuse pools.
func TestRandomWalkEstimatorRetainsWalker(t *testing.T) {
	joins := fixtureJoins(t)
	est := &RandomWalkEstimator{Joins: joins}
	if _, err := est.Params(rng.New(38)); err != nil {
		t.Fatal(err)
	}
	if est.Walker == nil {
		t.Fatal("walker not retained")
	}
	pools := 0
	for _, je := range est.Walker.JoinEstimates() {
		pools += len(je.Samples())
	}
	if pools == 0 {
		t.Error("no reuse pool retained after warm-up")
	}
}

// TestNewRunRNGStreams: stream derivation must decorrelate both nearby
// seeds and nearby stream indexes.
func TestNewRunRNGStreams(t *testing.T) {
	if DeriveSeed(1, 0) == DeriveSeed(1, 1) || DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("DeriveSeed collapsed nearby inputs")
	}
	a, b := rng.New(DeriveSeed(1, 0)), rng.New(DeriveSeed(1, 1))
	same := 0
	for i := 0; i < 8; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same == 8 {
		t.Fatal("adjacent streams produced identical output")
	}
}
