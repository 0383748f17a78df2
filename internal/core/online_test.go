package core

import (
	"testing"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

func TestOnlineSamplerProducesUnionSamples(t *testing.T) {
	joins := fixtureJoins(t)
	s := onlineReuseRun(t, joins, OnlineConfig{WarmupWalks: 400, Phi: 100})
	idx := unionIndex(t, joins)
	out, err := s.Sample(4000, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4000 {
		t.Fatalf("got %d samples", len(out))
	}
	for _, tu := range out {
		if _, ok := idx[relation.TupleKey(tu)]; !ok {
			t.Fatalf("online sample %v not in union", tu)
		}
	}
}

func TestOnlineSamplerReusesWarmupSamples(t *testing.T) {
	joins := fixtureJoins(t)
	s := onlineReuseRun(t, joins, OnlineConfig{WarmupWalks: 500, Phi: 200})
	if _, err := s.Sample(2000, rng.New(12)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ReuseAccepted == 0 {
		t.Error("warm-up pool never reused")
	}
	if st.ReuseTime <= 0 {
		t.Error("reuse time not recorded")
	}
}

func TestOnlineSamplerNoWarmup(t *testing.T) {
	joins := fixtureJoins(t)
	s := onlineReuseRun(t, joins, OnlineConfig{WarmupWalks: 0, Phi: 50})
	idx := unionIndex(t, joins)
	out, err := s.Sample(2000, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range out {
		if _, ok := idx[relation.TupleKey(tu)]; !ok {
			t.Fatalf("no-warmup sample %v not in union", tu)
		}
	}
	// Without warm-up the histogram initialization is in effect and all
	// draws are fresh walks.
	if s.Stats().ReuseAccepted != 0 {
		t.Errorf("reuse without a warm-up pool: %d", s.Stats().ReuseAccepted)
	}
	if s.Stats().Backtracks == 0 {
		t.Error("no parameter updates happened")
	}
}

func TestOnlineSamplerBacktracking(t *testing.T) {
	joins := fixtureJoins(t)
	s := onlineReuseRun(t, joins, OnlineConfig{
		WarmupWalks: 0,
		Phi:         25,
		Gamma:       0.999, // keep updating so backtracks keep firing
	})
	if _, err := s.Sample(3000, rng.New(14)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Backtracks < 2 {
		t.Errorf("backtracks = %d, want several", st.Backtracks)
	}
	if s.conf <= 0 {
		t.Errorf("confidence = %f", s.conf)
	}
}

func TestOnlineSamplerApproxUniform(t *testing.T) {
	joins := fixtureJoins(t)
	s := onlineReuseRun(t, joins, OnlineConfig{
		WarmupWalks: 2000,
		Phi:         500,
	})
	// Online estimates converge but are never exact: wide slack, the
	// bias being exactly what the paper's ratio-error experiments
	// quantify.
	checkUniformUnion(t, joins, 30000, 8, s.Sample, rng.New(15))
}

// TestOnlineRunApproxUniform: a prepared run (NewRun drops the warm-up
// pool and draws fresh walks) passes the same uniformity check.
func TestOnlineRunApproxUniform(t *testing.T) {
	joins := fixtureJoins(t)
	shared, err := PrepareOnline(joins, OnlineConfig{WarmupWalks: 400}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	run := shared.NewRun()
	checkUniformUnion(t, joins, 40000, 8, run.Sample, rng.New(32))
	if st := run.Stats(); st.ReuseAccepted != 0 || st.ReuseRejected != 0 {
		t.Errorf("prepared run drew from the warm-up pool: %+v", st)
	}
}

func TestOnlineSamplerPhaseCosts(t *testing.T) {
	joins := fixtureJoins(t)
	// 800 warm-up walks per join: the reuse pool serves the early draws
	// and drains well before 6000 samples, so both phases run.
	s := onlineReuseRun(t, joins, OnlineConfig{WarmupWalks: 800, Phi: 1000})
	if _, err := s.Sample(6000, rng.New(16)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ReuseAccepted == 0 || st.Accepted <= st.ReuseAccepted {
		t.Fatalf("phases not both exercised: %+v", st)
	}
	if st.ReuseTime <= 0 || st.RegularTime <= 0 {
		t.Errorf("per-phase times: reuse %v regular %v", st.ReuseTime, st.RegularTime)
	}
}

func TestOnlineSamplerInstances(t *testing.T) {
	s := &OnlineSampler{}
	g := rng.New(17)
	if got := s.instances(0, g); got != 0 {
		t.Errorf("instances(0) = %d", got)
	}
	if got := s.instances(-1, g); got != 0 {
		t.Errorf("instances(-1) = %d", got)
	}
	if got := s.instances(3, g); got != 3 {
		t.Errorf("instances(3) = %d", got)
	}
	// Fractional ratios keep expectation: mean of instances(0.5) ≈ 0.5.
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.instances(0.5, g)
	}
	mean := float64(sum) / n
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("E[instances(0.5)] = %f", mean)
	}
	// Mixed integer+fraction: E[instances(2.25)] ≈ 2.25.
	sum = 0
	for i := 0; i < n; i++ {
		sum += s.instances(2.25, g)
	}
	mean = float64(sum) / n
	if mean < 2.15 || mean > 2.35 {
		t.Errorf("E[instances(2.25)] = %f", mean)
	}
}

func TestStatsString(t *testing.T) {
	var st Stats
	if st.String() == "" {
		t.Error("empty Stats renders empty string")
	}
}
