package core

import (
	"testing"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
	"sampleunion/internal/walkest"
)

// TestRefreshReprobesCleanAnchors: each join anchors its own cover
// estimate — ĉ_3 lives in J3's walks, as the share of them no earlier
// join contains. Appending to J1 copies of J3's results with K in
// [60, 70) dirties J1 only; a Refresh must then move ĉ_3 — by probing
// J3's retained walks against J1 again, not by walking J3 again — in both
// engines, and leave the generation it refreshed from alone. Over
// unchanged data, before the append and after the refresh, a Refresh
// builds nothing and returns its receiver.
func TestRefreshReprobesCleanAnchors(t *testing.T) {
	for _, online := range []bool{false, true} {
		joins := fixtureJoins(t)
		var p PreparedSampler
		var err error
		if online {
			p, err = PrepareOnline(joins, OnlineConfig{WarmupWalks: 400}, rng.New(7))
		} else {
			p, err = PrepareCover(joins, CoverConfig{
				Method:    MethodEW,
				Estimator: &RandomWalkEstimator{Joins: joins, Opts: walkest.Options{MaxWalks: 400}},
			}, rng.New(7))
		}
		if err != nil {
			t.Fatal(err)
		}
		walks := func(p PreparedSampler) *walkest.Estimator {
			if o, ok := p.(*OnlineShared); ok {
				return o.walker
			}
			return p.(*CoverShared).walker
		}
		if p.Params() == nil || p.WarmupTime() <= 0 {
			t.Fatalf("online=%v: warm-up left no params or no warm-up time", online)
		}
		if same, changed, err := p.Refresh(rng.New(8)); err != nil || changed || same != p {
			t.Fatalf("online=%v: Refresh over unchanged data: changed=%v err=%v", online, changed, err)
		}
		before := walks(p)
		// J3's region is K in [60, 80): 20 + 7 of its results.
		cover3 := before.JoinEstimates()[2].Cover()
		if cover3 < 17 || cover3 > 37 {
			t.Fatalf("online=%v: ĉ_3 = %v before the append, want about 27", online, cover3)
		}
		var walked, pooled []int
		for _, je := range before.JoinEstimates() {
			walked = append(walked, je.Walks())
			pooled = append(pooled, len(je.Samples()))
		}

		// Give J1 J3's results with K in [60, 70): J3's region keeps
		// K in [70, 80), 10 + 3 results.
		a, b := joins[0].Nodes()[0].Rel, joins[0].Nodes()[1].Rel
		for k := 60; k < 70; k++ {
			a.AppendValues(relation.Value(k), relation.Value(k*10))
			b.AppendValues(relation.Value(k), relation.Value(k*100))
			if k%3 == 0 {
				b.AppendValues(relation.Value(k), relation.Value(k*100+1))
			}
		}
		np, changed, err := p.Refresh(rng.New(8))
		if err != nil || !changed {
			t.Fatalf("online=%v: Refresh changed=%v err=%v", online, changed, err)
		}
		after := walks(np)
		if got := after.JoinEstimates()[2].Cover(); got < 8 || got > 18 {
			t.Errorf("online=%v: ĉ_3 estimated %v after the append, want about 13", online, got)
		}
		if got := before.JoinEstimates()[2].Cover(); got != cover3 {
			t.Errorf("online=%v: Refresh moved the old generation's estimate to %v", online, got)
		}
		for j, je := range after.JoinEstimates()[1:] {
			j++
			if je.Walks() != walked[j] || je.Size() != before.JoinEstimates()[j].Size() {
				t.Errorf("online=%v: clean join %d walked again: %d walks (size %v), had %d (size %v)",
					online, j, je.Walks(), je.Size(), walked[j], before.JoinEstimates()[j].Size())
			}
		}
		// Reprobed counts the retained walks whose owners were probed
		// again: with J1 dirty, every one of J2's and J3's, as no join
		// precedes J1 to leave an owner unmoved (join.Owners.Unmoved).
		st := np.LastRefresh()
		want := RefreshStats{
			DirtyJoins: 1,
			Walks:      after.JoinEstimates()[0].Walks(),
			Reprobed:   pooled[1] + pooled[2],
		}
		if !online {
			// The EW tables of J1 were patched: the root segment. The
			// root's 50 rows are a large segment of one block in one
			// group (400 B of sums, 200 of rows), the group's directory
			// and the top one (16 B each), the block's and the group's
			// headers (48 B each) and the segment's (64 B), and the
			// node's directory of large segments (8 B). The child, a
			// leaf, keeps no table: the 10 new join values' 14 rows are
			// its index's.
			want.SegmentsPatched = 1
			want.WeightBytes = 800
			// The patch followed J1's new K values up to the root's rows
			// through J1_a's index on K, which set-up leaves to it.
			want.IndexesBuilt = 1
		}
		if st != want {
			t.Errorf("online=%v: refresh stats %+v, want %+v", online, st, want)
		}
		if want.Walks == 0 {
			t.Errorf("online=%v: dirty join was not walked again", online)
		}
		if same, changed, err := np.Refresh(rng.New(9)); err != nil || changed || same != np {
			t.Errorf("online=%v: second Refresh with nothing new: changed=%v err=%v", online, changed, err)
		}
	}
}

// TestPrewarmBuildsOnlyEdgeIndexes: a prepared, prewarmed sampler has
// built, per join edge, the child's index on the join attribute — the
// one walks and draws probe — and no index on a root. The parent's index
// on the join attribute, a refresh's way up from a changed child value to
// the parent rows holding it, builds on the first Refresh that follows
// one, which counts it in IndexesBuilt; an index on a payload attribute,
// which a later Refresh would otherwise have to catch up for nothing,
// builds on its first use.
func TestPrewarmBuildsOnlyEdgeIndexes(t *testing.T) {
	joins := fixtureJoins(t)
	var p PreparedSampler
	p, err := PrepareCover(joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &RandomWalkEstimator{Joins: joins},
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	Prewarm(p)
	for _, j := range joins {
		for k, n := range j.Nodes() {
			// Both relations of a fixture join are (K, payload), joined on
			// K; node 0 is the root.
			if got := n.Rel.StorageStats().Indexed; got[0] != (k > 0) || got[1] {
				t.Errorf("%s: indexed attributes %v, want the join attribute on a child only", n.Rel.Name(), got)
			}
		}
	}
	// A second row of J1_b for K = 5 moves K's total: the patch reweighs
	// the root rows holding 5, found through J1_a's index on K.
	root, child := joins[0].Nodes()[0].Rel, joins[0].Nodes()[1].Rel
	for round, wantBuilt := range []int{1, 0} {
		child.AppendValues(5, relation.Value(501+round))
		np, changed, err := p.Refresh(rng.New(4))
		if err != nil || !changed {
			t.Fatalf("round %d: Refresh changed=%v err=%v", round, changed, err)
		}
		st := np.LastRefresh()
		if st.IndexesBuilt != wantBuilt || st.JoinsRebuilt != 0 || st.SegmentsPatched == 0 {
			t.Errorf("round %d: refresh stats %+v, want %d index built and a patch", round, st, wantBuilt)
		}
		if !root.StorageStats().Indexed[0] {
			t.Errorf("round %d: the Refresh left %s without its index on K", round, root.Name())
		}
		p = np
	}
	if child.Degree(1, child.Value(0, 1)) != 1 || !child.StorageStats().Indexed[1] {
		t.Error("payload index did not build on first use")
	}
}

// TestRefreshStatsCountOnlyTheRefresh: a Refresh reports the indexes
// built while it ran. A payload index a caller builds between two
// refreshes (Relation.Degree) is charged to neither; the parent's index
// on the join attribute, which the first Refresh's patch builds, is
// charged to that Refresh alone.
func TestRefreshStatsCountOnlyTheRefresh(t *testing.T) {
	joins := fixtureJoins(t)
	var p PreparedSampler
	p, err := PrepareCover(joins, CoverConfig{
		Method:    MethodEW,
		Estimator: &RandomWalkEstimator{Joins: joins},
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	root, child := joins[0].Nodes()[0].Rel, joins[0].Nodes()[1].Rel
	between := []*relation.Relation{child, root} // a payload index built after round i
	for round, wantBuilt := range []int{1, 0, 0} {
		child.AppendValues(5, relation.Value(501+round))
		np, changed, err := p.Refresh(rng.New(4))
		if err != nil || !changed {
			t.Fatalf("round %d: Refresh changed=%v err=%v", round, changed, err)
		}
		if st := np.LastRefresh(); st.IndexesBuilt != wantBuilt {
			t.Errorf("round %d: the Refresh reports %d indexes built, want %d", round, st.IndexesBuilt, wantBuilt)
		}
		if round < len(between) {
			r := between[round]
			r.Degree(1, r.Value(0, 1))
		}
		p = np
	}
	if !root.StorageStats().Indexed[1] || !child.StorageStats().Indexed[1] {
		t.Fatal("Degree built no payload index")
	}
}
