package core

import (
	"runtime"
	"testing"
	"unsafe"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// TestFreshWalkIsProbedOnce: a fresh walk of a served online run meets
// every earlier join's membership table at most once. While the run
// refines (conf < γ) the walk carries the owner f(t) it was probed to, and
// accept reads it — shown by handing accept an owner that contradicts the
// data, which it believes. Once refinement has frozen the walk carries no
// owner (-1), the estimates stop moving, and accept's owner scan is the
// only probe. (join.AlignedProbe is a concrete struct on the hot path, so
// the probes are pinned by what each side can be seen to read rather than
// by a counter inside it.)
func TestFreshWalkIsProbedOnce(t *testing.T) {
	joins := fixtureJoins(t)
	shared, err := PrepareOnline(joins, OnlineConfig{WarmupWalks: 100}, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	run := shared.NewRun().(*OnlineSampler)
	g := rng.New(42)
	base := run.prep.base
	walk := func(j int) (relation.Tuple, int) {
		for {
			if sm, mult, reuse := run.candidate(j, g); mult > 0 {
				if reuse {
					t.Fatal("a served run drew from the warm-up pool")
				}
				return run.scratch, sm.Owner
			}
		}
	}

	var shadowed relation.Tuple // a value of join 1 that join 0 owns
	for i := 0; i < 300; i++ {
		j := i % len(joins)
		tu, owner := walk(j)
		if owner < 0 || owner > j {
			t.Fatalf("refining walk of join %d carries owner %d", j, owner)
		}
		if f := base.owners.Owner(j, tu); owner != f {
			t.Fatalf("join %d tuple %v: owner %d, f(t) = %d", j, tu, owner, f)
		}
		if j == 1 && owner == 0 {
			shadowed = tu.Clone()
		}
	}
	if shadowed == nil {
		t.Fatal("no walk of join 1 landed in join 0")
	}
	dups := run.stats.RejectedDup
	if !run.accept(1, shadowed, 1) {
		t.Error("accept probed join 0 although the walk's owner was at hand")
	}
	if run.accept(1, shadowed, -1) || run.accept(1, shadowed, 0) || run.stats.RejectedDup != dups+2 {
		t.Error("accept kept a value join 0 owns")
	}
	if len(run.walks.JoinEstimates()[0].Samples()) != 0 {
		t.Error("a served walk was retained")
	}

	if _, err := run.Sample(600, g); err != nil {
		t.Fatal(err)
	}
	if run.conf < shared.gamma || run.stats.Backtracks == 0 {
		t.Fatalf("refinement did not freeze: conf %.3f after %d backtracks", run.conf, run.stats.Backtracks)
	}
	je := run.walks.JoinEstimates()[1]
	cover, walks, hw := je.Cover(), je.Walks(), run.Stats().Joins[1].CoverRelHalfWidth
	for i := 0; i < 300; i++ {
		if _, owner := walk(i % len(joins)); owner != -1 {
			t.Fatalf("frozen walk carries owner %d", owner)
		}
	}
	if je.Walks() != walks || je.Cover() != cover {
		t.Errorf("frozen walks moved the estimates: %d walks, ĉ %v; were %d, %v", je.Walks(), je.Cover(), walks, cover)
	}
	if got := run.Stats().Joins[1].CoverRelHalfWidth; got != hw || !(hw > 0) {
		t.Errorf("Stats reads cover half-width %v after the freeze, %v at it", got, hw)
	}
}

// TestSampleViewEqualsSample: call for call, a view is the batch Sample
// would have copied out — also when the previous call's last commit
// overshot and left instances buffered in the arena — it aliases the
// arena, and it stays readable until the run's next call.
func TestSampleViewEqualsSample(t *testing.T) {
	joins := fixtureJoins(t)
	exact := &ExactEstimator{Joins: joins}
	cover, err := PrepareCover(joins, CoverConfig{Method: MethodEW, Estimator: exact}, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	online, err := PrepareOnline(joins, OnlineConfig{WarmupWalks: 30}, rng.New(52))
	if err != nil {
		t.Fatal(err)
	}
	sharded, _ := prepareShardedFixture(t, 2)
	disjoint, err := PrepareDisjoint(joins, MethodEO)
	if err != nil {
		t.Fatal(err)
	}
	bernoulli, err := PrepareBernoulli(joins, CoverConfig{Method: MethodEW, Estimator: exact}, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]runMaker{"cover": cover, "online": online, "sharded": sharded, "disjoint": disjoint, "bernoulli": bernoulli}
	for name, p := range engines {
		copied, viewed := p.NewRun(), p.NewRun()
		gc, gv := copied.RNG(6), viewed.RNG(6)
		leftovers := 0
		for _, n := range []int{1, 2, 3, 1, 5, 64, 2, 1, 300, 1, 1, 7} {
			want, err := copied.Sample(n, gc)
			if err != nil {
				t.Fatal(err)
			}
			view, err := viewed.SampleView(n, gv)
			if err != nil {
				t.Fatal(err)
			}
			var rs *runState
			switch r := viewed.(type) {
			case *CoverSampler:
				rs = &r.runState
			case *OnlineSampler:
				rs = &r.runState
			case *DisjointSampler:
				rs = &r.runState
			case *BernoulliSampler:
				rs = &r.runState
			}
			if rs != nil {
				if len(rs.result) > 0 {
					leftovers++
				}
				if !aliases(rs.arena[:cap(rs.arena)], view[0]) {
					t.Fatalf("%s n=%d: the view does not alias the arena", name, n)
				}
			}
			viewed.Stats() // reading the run does not disturb the view
			if len(view) != n || !sameTuples(view, want) {
				t.Fatalf("%s n=%d: view %v, Sample %v", name, n, view, want)
			}
		}
		if name == "online" && leftovers == 0 {
			t.Error("no online call left instances buffered: the case under test never ran")
		}
	}
}

// aliases reports whether t starts inside arena's backing.
func aliases(arena []relation.Value, t relation.Tuple) bool {
	for i := range arena {
		if &arena[i] == &t[0] {
			return true
		}
	}
	return false
}

func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestSampleWhereOwnsItsResult: what SampleWhere returns is one backing of
// exactly n tuples — nothing of the candidates it rejected is retained —
// and it is the caller's: later draws on the same run, recycled or not,
// leave it as it was.
func TestSampleWhereOwnsItsResult(t *testing.T) {
	joins := fixtureJoins(t)
	schema := joins[0].OutputSchema()
	pred := relation.Cmp{Attr: "K", Op: relation.LT, Val: 9}
	online, err := PrepareOnline(joins, OnlineConfig{WarmupWalks: 30}, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	cover, err := PrepareCover(joins, CoverConfig{Method: MethodEW, Estimator: &ExactEstimator{Joins: joins}}, rng.New(62))
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]PreparedSampler{"cover": cover, "online": online} {
		const n = 512
		k := schema.Len()
		where := func(seed int64) ([]relation.Tuple, uint64) {
			run := p.NewRun()
			defer run.Release()
			g := run.RNG(seed)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := SampleWhere(run, schema, pred, n, g, 0)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return out, after.TotalAlloc - before.TotalAlloc
		}
		// The first call sizes the run's buffers; sync.Pool may drop the run
		// (it does under -race), so the cheapest of a few calls is the
		// recycled one.
		out, bytes := where(3)
		for i := 0; i < 5; i++ {
			if _, b := where(3); b < bytes {
				bytes = b
			}
		}
		if len(out) != n || cap(out) != n {
			t.Fatalf("%s: %d tuples in a slice of %d, want %d", name, len(out), cap(out), n)
		}
		for i, tu := range out {
			if len(tu) != k || cap(tu) != k ||
				(i > 0 && unsafe.Pointer(&tu[0]) != unsafe.Add(unsafe.Pointer(&out[i-1][0]), k*8)) {
				t.Fatalf("%s: tuple %d is not the next %d values of one backing", name, i, k)
			}
		}
		if limit := uint64(n*(k*8+24)) * 5 / 4; bytes > limit {
			t.Errorf("%s: the call allocated %d B, over %d: more than its %d-tuple result", name, bytes, limit, n)
		}
		kept := make([]relation.Tuple, n)
		for i, tu := range out {
			kept[i] = tu.Clone()
		}
		for seed := int64(4); seed < 8; seed++ {
			where(seed)
		}
		if !sameTuples(out, kept) {
			t.Fatalf("%s: a SampleWhere result changed under later draws", name)
		}
	}
}
