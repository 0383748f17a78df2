package core

import (
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/tune"
	"sampleunion/internal/walkest"
)

// zipfJoin builds R(K,X) ⋈_K S(K,Y) where K=base fans out heavy ways
// and the other k-1 keys fan out once: wide enough walk variance that
// the planner escalates the join's size estimate to an exact count.
func zipfJoin(t testing.TB, name string, k, heavy int, base int) *join.Join {
	t.Helper()
	a := relation.New(name+"_a", relation.NewSchema("K", "X"))
	b := relation.New(name+"_b", relation.NewSchema("K", "Y"))
	for i := 0; i < k; i++ {
		a.AppendValues(relation.Value(base+i), relation.Value(base+i*10))
	}
	for c := 0; c < heavy; c++ {
		b.AppendValues(relation.Value(base), relation.Value(base+1000+c))
	}
	for i := 1; i < k; i++ {
		b.AppendValues(relation.Value(base+i), relation.Value(base+500+i))
	}
	j, err := join.NewChain(name, []*relation.Relation{a, b}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// tunedJoins is the adaptive-path fixture: a zipfian join (16 keys, one
// fanning out 64 ways, 79 results) next to the flat fixture chains.
func tunedJoins(t testing.TB) []*join.Join {
	t.Helper()
	return append([]*join.Join{zipfJoin(t, "Z", 16, 64, 2000)}, fixtureJoins(t)...)
}

// checkMembers draws n tuples and verifies every one belongs to the
// exact set union.
func checkMembers(t *testing.T, joins []*join.Join, run Run, n int, g *rng.RNG) {
	t.Helper()
	idx := unionIndex(t, joins)
	out, err := run.Sample(n, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d samples, want %d", len(out), n)
	}
	for _, tu := range out {
		if _, ok := idx[relation.TupleKey(tu)]; !ok {
			t.Fatalf("sample %v is not in the union", tu)
		}
	}
}

// TestTunedCoverLifecycle drives the cover sampler's full adaptive
// loop: plan at Prepare (with the zipfian join escalated to an exact
// count), draws, a mutation, and a Refresh re-plan over the dirty base.
func TestTunedCoverLifecycle(t *testing.T) {
	joins := tunedJoins(t)
	ctrl := tune.NewController(tune.Config{})
	p, err := PrepareCover(joins, CoverConfig{
		Method: MethodEO,
		Estimator: &RandomWalkEstimator{
			Joins: joins,
			// Few enough walks that the zipfian join's estimate stays
			// wide (rel half-width ~0.45 > the 0.2 escalation threshold).
			Opts: walkest.Options{MaxWalks: 128},
		},
		Tuner: ctrl,
	}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Plan() == nil {
		t.Fatal("no plan installed at Prepare")
	}
	if got := len(p.Tuners()); got != 1 {
		t.Fatalf("Tuners returned %d controllers, want 1", got)
	}
	if p.Params() == nil || p.WarmupTime() <= 0 {
		t.Fatal("warm-up left no params or no warm-up time")
	}
	sn := ctrl.Snapshot()
	if sn.Replans != 1 {
		t.Fatalf("replans = %d after Prepare, want 1", sn.Replans)
	}
	if !sn.Joins[0].Exact {
		t.Fatalf("zipfian join not escalated to exact: %+v", sn.Joins[0])
	}
	if got := p.Params().JoinSizes[0]; got != 79 {
		t.Fatalf("escalated join size = %v, want the exact 79", got)
	}
	checkMembers(t, joins, p.NewRun(), 500, rng.New(DeriveSeed(11, 1)))

	if p.Stale() {
		t.Fatal("prepared sampler stale before any mutation")
	}
	// Double the heavy fan-out and delete one flat row: join 0 dirty.
	b := joins[0].Nodes()[1].Rel
	extra := make([]relation.Tuple, 64)
	for c := range extra {
		extra[c] = relation.Tuple{relation.Value(2000), relation.Value(5000 + c)}
	}
	b.AppendRows(extra)
	b.Delete(heavyLiveRow(t, b, 70))
	if !p.Stale() {
		t.Fatal("mutation not detected as stale")
	}
	np, changed, err := p.Refresh(rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("Refresh over a dirty base reported no change")
	}
	if got := ctrl.Snapshot().Replans; got != 2 {
		t.Fatalf("replans = %d after Refresh, want 2", got)
	}
	checkMembers(t, joins, np.NewRun(), 500, rng.New(DeriveSeed(11, 2)))
}

// heavyLiveRow returns the index of the n-th live row of r.
func heavyLiveRow(t testing.TB, r *relation.Relation, n int) int {
	t.Helper()
	live := 0
	for i := 0; i < r.Len(); i++ {
		if !r.Live(i) {
			continue
		}
		if live == n {
			return i
		}
		live++
	}
	t.Fatalf("relation %s has fewer than %d live rows", r.Name(), n+1)
	return -1
}

// TestTunedCoverRejectionReplan: rejection feedback past the trigger
// makes the next Refresh rebuild even over clean data.
func TestTunedCoverRejectionReplan(t *testing.T) {
	joins := fixtureJoins(t)
	ctrl := tune.NewController(tune.Config{})
	p, err := PrepareCover(joins, CoverConfig{
		Method:    MethodEO,
		Estimator: &RandomWalkEstimator{Joins: joins},
		Tuner:     ctrl,
	}, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	cur := []JoinBreakdown{{Draws: 1000, Rejected: 960}, {Draws: 10, Rejected: 1}, {Draws: 10, Rejected: 1}}
	ObserveRun(ctrl, cur)
	if !ctrl.NeedsReplan() {
		t.Fatal("96%% rejection over 1000 draws did not raise the re-plan flag")
	}
	ObserveRun(nil, cur) // no controller, no feedback: must not panic
	np, changed, err := p.Refresh(rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("pending re-plan over clean data did not rebuild")
	}
	if ctrl.NeedsReplan() {
		t.Fatal("re-plan flag still raised after Refresh")
	}
	if np == p {
		t.Fatal("Refresh returned the old prepared sampler")
	}
	// A second Refresh with no mutation and no pending flag is a no-op.
	_, changed, err = np.Refresh(rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("idle Refresh rebuilt the sampler")
	}
}

// TestTunedOnlineLifecycle drives the online sampler's adaptive loop:
// escalation pinned through exactSizes at Prepare, then a mutation and
// a Refresh that re-warms only the dirty join and re-plans.
func TestTunedOnlineLifecycle(t *testing.T) {
	joins := tunedJoins(t)
	ctrl := tune.NewController(tune.Config{})
	p, err := PrepareOnline(joins, OnlineConfig{
		WarmupWalks: 128,
		Tuner:       ctrl,
	}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if p.Params() == nil || p.WarmupTime() <= 0 {
		t.Fatal("warm-up left no params or no warm-up time")
	}
	sn := ctrl.Snapshot()
	if sn.Replans != 1 {
		t.Fatalf("replans = %d after Prepare, want 1", sn.Replans)
	}
	if !sn.Joins[0].Exact {
		t.Fatalf("zipfian join not escalated to exact: %+v", sn.Joins[0])
	}
	if got := p.Params().JoinSizes[0]; got != 79 {
		t.Fatalf("escalated join size = %v, want the exact 79", got)
	}
	if got := len(p.Tuners()); got != 1 {
		t.Fatalf("Tuners returned %d controllers, want 1", got)
	}
	checkMembers(t, joins, p.NewRun(), 300, rng.New(DeriveSeed(31, 1)))

	// Shrink the heavy fan-out to 8: join 0 dirty, its walks and its
	// accumulated feedback reset, and the re-plan reads fresh priors.
	b := joins[0].Nodes()[1].Rel
	for i, gone := 0, 0; i < b.Len() && gone < 56; i++ {
		if b.Live(i) {
			b.Delete(i)
			gone++
		}
	}
	if !p.Stale() {
		t.Fatal("mutation not detected as stale")
	}
	np, changed, err := p.Refresh(rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("Refresh over a dirty base reported no change")
	}
	if got := ctrl.Snapshot().Replans; got != 2 {
		t.Fatalf("replans = %d after Refresh, want 2", got)
	}
	checkMembers(t, joins, np.NewRun(), 300, rng.New(DeriveSeed(31, 2)))
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
