package core

import (
	"errors"
	"math"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

func exactFactory(joins []*join.Join, g *rng.RNG) (PreparedSampler, error) {
	return PrepareCover(joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &ExactEstimator{Joins: joins},
	}, g)
}

func prepareShardedFixture(t *testing.T, shards int) (*ShardedShared, []*join.Join) {
	t.Helper()
	joins := fixtureJoins(t)
	p, err := PrepareSharded(joins, ShardedConfig{
		Shards:  shards,
		Factory: exactFactory,
	}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return p, joins
}

func TestPartitionAttrPicksWidestHolder(t *testing.T) {
	joins := fixtureJoins(t) // chains a(K,X) ⋈ b(K,Y): K held by both relations
	if attr := PartitionAttr(joins); attr != "K" {
		t.Fatalf("chose %q, want K (held by every relation)", attr)
	}
}

func TestShardedAggregatesMatchUnsharded(t *testing.T) {
	p, joins := prepareShardedFixture(t, 4)
	flat, err := exactFactory(joins, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	sp, fp := p.Params(), flat.Params()
	// Exact per-shard parameters over a disjoint partition must sum to
	// the exact unsharded parameters.
	if math.Abs(sp.UnionSize-fp.UnionSize) > 1e-6 {
		t.Fatalf("sharded |U| %g, unsharded %g", sp.UnionSize, fp.UnionSize)
	}
	for j := range fp.JoinSizes {
		if math.Abs(sp.JoinSizes[j]-fp.JoinSizes[j]) > 1e-6 {
			t.Fatalf("join %d size: sharded %g, unsharded %g", j, sp.JoinSizes[j], fp.JoinSizes[j])
		}
		if math.Abs(sp.Cover[j]-fp.Cover[j]) > 1e-6 {
			t.Fatalf("join %d cover: sharded %g, unsharded %g", j, sp.Cover[j], fp.Cover[j])
		}
	}
	weights := p.weights
	if len(weights) != 4 {
		t.Fatalf("%d weights", len(weights))
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if math.Abs(sum-fp.UnionSize) > 1e-6 {
		t.Fatalf("shard weights sum to %g, |U| is %g", sum, fp.UnionSize)
	}
	if len(p.perShard) != 4 || p.attr != "K" {
		t.Fatalf("Shards=%d Attr=%q", len(p.perShard), p.attr)
	}
}

func TestShardedDrawsAreMembersAndDeterministic(t *testing.T) {
	p, joins := prepareShardedFixture(t, 3)
	idx := unionIndex(t, joins)
	draw := func() []relation.Tuple {
		out, err := p.NewRun().Sample(400, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if _, ok := idx[relation.TupleKey(a[i])]; !ok {
			t.Fatalf("draw %v not in the union", a[i])
		}
		if !a[i].Equal(b[i]) {
			t.Fatalf("draw %d nondeterministic: %v vs %v", i, a[i], b[i])
		}
	}
	run := p.NewRun()
	if _, err := run.Sample(100, rng.New(9)); err != nil {
		t.Fatal(err)
	}
	st := run.Stats()
	if st.Accepted == 0 || st.TotalDraws < st.Accepted {
		t.Fatalf("merged stats implausible: %+v", st)
	}
	if run.Params().UnionSize != p.Params().UnionSize {
		t.Fatal("run params differ from shared aggregate")
	}
}

func TestShardedToleratesEmptyShards(t *testing.T) {
	// One key value: every row hashes to a single shard, the rest are
	// empty fragments whose preparation yields ErrEmptyUnion internally.
	a := relation.New("a", relation.NewSchema("K", "X"))
	b := relation.New("b", relation.NewSchema("K", "Y"))
	for i := 0; i < 10; i++ {
		a.AppendValues(1, relation.Value(i))
		b.AppendValues(1, relation.Value(100+i))
	}
	j, err := join.NewChain("c", []*relation.Relation{a, b}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := PrepareSharded([]*join.Join{j}, ShardedConfig{Shards: 4, Factory: exactFactory}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, w := range p.weights {
		if w > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("%d busy shards, want 1", busy)
	}
	out, err := p.NewRun().Sample(50, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("%d draws", len(out))
	}
}

func TestShardedEmptyUnionErrors(t *testing.T) {
	a := relation.New("a", relation.NewSchema("K", "X"))
	b := relation.New("b", relation.NewSchema("K", "Y"))
	a.AppendValues(1, 2) // no matching K in b: join is empty
	b.AppendValues(9, 3)
	j, err := join.NewChain("c", []*relation.Relation{a, b}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = PrepareSharded([]*join.Join{j}, ShardedConfig{Shards: 2, Factory: exactFactory}, rng.New(3))
	if !errors.Is(err, ErrEmptyUnion) {
		t.Fatalf("err = %v, want ErrEmptyUnion", err)
	}
}

func TestShardedConfigValidation(t *testing.T) {
	joins := fixtureJoins(t)
	if _, err := PrepareSharded(joins, ShardedConfig{Shards: 0, Factory: exactFactory}, rng.New(1)); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := PrepareSharded(joins, ShardedConfig{Shards: 2}, rng.New(1)); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := mustSharded(t, joins).Disjoint(); err == nil {
		t.Fatal("a sharded sampler offered subroutine samplers to share")
	}
}

func mustSharded(t *testing.T, joins []*join.Join) *ShardedShared {
	t.Helper()
	p, err := PrepareSharded(joins, ShardedConfig{Shards: 2, Factory: exactFactory}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestShardedRefresh(t *testing.T) {
	p, joins := prepareShardedFixture(t, 3)
	// Clean refresh is a no-op.
	np, changed, err := p.Refresh(rng.New(2))
	if err != nil || changed || np != PreparedSampler(p) {
		t.Fatalf("clean refresh: changed=%t err=%v", changed, err)
	}
	if p.Stale() {
		t.Fatal("fresh sharded sampler reports stale")
	}
	// Mutate a base relation; Stale must trip, Refresh must reconcile.
	rel := joins[0].Nodes()[0].Rel
	rel.AppendValues(1000, 1)
	rel.AppendValues(1001, 2)
	if !p.Stale() {
		t.Fatal("mutated sharded sampler not stale")
	}
	np2, changed, err := p.Refresh(rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("refresh over mutations reported no change")
	}
	if np2.Stale() {
		t.Fatal("refreshed sampler still stale")
	}
	// The work list is the sum over the shards this refresh rebuilt. A
	// second, one-row burst reaches one shard: the clean shards return
	// their previous samplers, whose stats must not be counted again.
	checkShardedRefreshStats(t, p, np2.(*ShardedShared))
	rel.AppendValues(1002, 3)
	np3, _, err := np2.Refresh(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	checkShardedRefreshStats(t, np2.(*ShardedShared), np3.(*ShardedShared))
	idx := unionIndex(t, joins)
	out, err := np2.NewRun().Sample(300, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range out {
		if _, ok := idx[relation.TupleKey(tu)]; !ok {
			t.Fatalf("post-refresh draw %v not in mutated union", tu)
		}
	}
	// Old generation still serves its snapshot (live-relation contract).
	if _, err := p.NewRun().Sample(50, rng.New(8)); err != nil {
		t.Fatalf("old generation draw: %v", err)
	}
}

// checkShardedRefreshStats asserts that next's RefreshStats is non-empty
// and equals the sum of LastRefresh over the shards it did not carry
// over from prev.
func checkShardedRefreshStats(t *testing.T, prev, next *ShardedShared) {
	t.Helper()
	var want RefreshStats
	rebuilt := 0
	for s, ps := range next.perShard {
		if ps != nil && ps != prev.perShard[s] {
			want.add(ps.LastRefresh())
			rebuilt++
		}
	}
	got := next.LastRefresh()
	if got != want {
		t.Fatalf("sharded RefreshStats %+v, per-shard sum %+v", got, want)
	}
	if rebuilt == 0 || got.DirtyJoins < rebuilt || got.SegmentsPatched+got.JoinsRebuilt == 0 {
		t.Fatalf("sharded RefreshStats %+v after %d shard(s) refreshed", got, rebuilt)
	}
}

func TestShardedPrewarm(t *testing.T) {
	p, _ := prepareShardedFixture(t, 2)
	Prewarm(p)
	for s, joins := range p.shardJoins {
		for _, j := range joins {
			for _, n := range j.Nodes()[1:] {
				if !n.Rel.StorageStats().Indexed[n.AttrPos] {
					t.Errorf("shard %d: %s has no index on its join attribute after Prewarm", s, n.Rel.Name())
				}
			}
		}
	}
}
