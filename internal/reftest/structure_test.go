package reftest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	su "sampleunion"
	"sampleunion/internal/core"
	"sampleunion/internal/join"
	"sampleunion/internal/joinsample"
	"sampleunion/internal/relation"
	"sampleunion/internal/tpch"
)

// uq1Attrs are the join attributes of UQ1's chain nation ⋈ supplier ⋈
// customer ⋈ orders ⋈ lineitem.
var uq1Attrs = []string{"nationkey", "nationkey", "custkey", "orderkey"}

// TestRefreshedStructuresEqualRebuilt is the structural half of
// "Refresh ≡ rebuild" on a live UQ1-shaped union under the zero Options:
// seeded 32-row append/delete bursts, each followed by Session.Refresh,
// and after every refresh each structure the session reads is compared
// with what a fresh Prepare over copies of the data builds — every join
// attribute index (Rows, Degree, MaxDegree, DistinctCount), every
// membership count, and every segment and total of every exact-weight
// table. The copies keep the live relations' row ids, tombstones
// included, so rows compare as they are. The script is long enough to
// cross each maintenance boundary at least twice — index compaction and
// weight-table fold by RefreshStats, member-delta fold by the delta
// emptying — so patched, extended and rebuilt generations all meet the
// check.
func TestRefreshedStructuresEqualRebuilt(t *testing.T) {
	w, err := tpch.UQ1N(tpch.Config{SF: 1, Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	u, err := su.NewUnion(w.Joins...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := u.Prepare(su.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Bursts land on customer, orders and lineitem of both variants,
	// lineitem_v0 most often; the first column of each is a join
	// attribute.
	v0, v1 := w.Joins[0].Relations(), w.Joins[1].Relations()
	targets := []*relation.Relation{v0[2], v0[3], v0[4], v0[4], v0[4], v1[2], v1[3], v1[4]}
	rnd := rand.New(rand.NewSource(26))
	var compactions, weightFolds, memberFolds int
	for burst, serial := 0, 0; burst < 36; burst++ {
		r := targets[rnd.Intn(len(targets))]
		rows := make([]relation.Tuple, 0, 32)
		for i := 0; i < 32; i++ {
			if rnd.Intn(4) == 0 {
				r.Delete(rnd.Intn(r.Len()))
				continue
			}
			// A copy of an existing row joins where it does; a unique last
			// column makes it a new tuple, and now and then a join value
			// from a small pool of new ones opens entries no index had.
			row := r.Row(rnd.Intn(r.Len()))
			row[len(row)-1] = relation.Value(1_000_000 + serial)
			serial++
			if rnd.Intn(8) == 0 {
				row[0] = relation.Value(500_000 + rnd.Intn(40))
			}
			rows = append(rows, row)
		}
		r.AppendRows(rows)
		if err := sess.Refresh(); err != nil {
			t.Fatal(err)
		}
		st := sess.RefreshStats()
		compactions += st.JoinsRebuilt
		weightFolds += st.NodesRebuilt
		for _, j := range w.Joins {
			for k, rel := range j.Relations() {
				if _, delta := j.MemberCount(k, rel.Row(0)); rel == r && delta == 0 {
					memberFolds++
				}
			}
		}
		checkRefreshed(t, fmt.Sprintf("burst %d (%s)", burst, r.Name()), w.Joins, sess)
	}
	if compactions < 2 || weightFolds < 2 || memberFolds < 2 {
		t.Fatalf("script crossed index compaction %d times, weight-table fold %d, member-delta fold %d; want each at least twice",
			compactions, weightFolds, memberFolds)
	}
}

// checkRefreshed compares the structures a refreshed session reads with
// a fresh Prepare's over copies of the relations.
func checkRefreshed(t *testing.T, label string, live []*join.Join, sess *su.Session) {
	t.Helper()
	copies := map[*relation.Relation]*relation.Relation{}
	fresh := make([]*join.Join, len(live))
	for i, j := range live {
		var rels []*relation.Relation
		for _, r := range j.Relations() {
			if copies[r] == nil {
				copies[r] = copyRelation(t, r)
			}
			rels = append(rels, copies[r])
		}
		var err error
		if fresh[i], err = join.NewChain(j.Name(), rels, uq1Attrs); err != nil {
			t.Fatal(err)
		}
	}
	fu, err := su.NewUnion(fresh...)
	if err != nil {
		t.Fatal(err)
	}
	fsess, err := fu.Prepare(su.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range live {
		nodes := j.Nodes()
		for k := 1; k < len(nodes); k++ {
			checkIndex(t, label, nodes[k].Rel, copies[nodes[k].Rel], nodes[k].AttrPos)
			p := nodes[nodes[k].Parent].Rel
			checkIndex(t, label, p, copies[p], nodes[k].ParentAttrPos)
		}
		for k, r := range j.Relations() {
			for row := 0; row < r.Len(); row++ {
				tup := r.Row(row)
				got, _ := j.MemberCount(k, tup)
				want, _ := fresh[i].MemberCount(k, tup)
				if got != want {
					t.Fatalf("%s: join %s relation %s: member count of %v is %d, fresh %d", label, j.Name(), r.Name(), tup, got, want)
				}
			}
		}
		checkWeights(t, fmt.Sprintf("%s: join %s", label, j.Name()), ewWeights(t, sess, i), ewWeights(t, fsess, i))
	}
}

// copyRelation is r's current contents in a relation of its own, row ids
// and tombstones included.
func copyRelation(t *testing.T, r *relation.Relation) *relation.Relation {
	t.Helper()
	sd := r.CaptureSnapshot()
	cols := make([][]relation.Value, len(sd.Cols))
	for a, c := range sd.Cols {
		cols[a] = slices.Clone(c[:sd.Rows])
	}
	sd.Cols, sd.Dead = cols, slices.Clone(sd.Dead)
	cp := relation.New(r.Name(), r.Schema())
	if err := cp.RestoreSnapshot(sd); err != nil {
		t.Fatal(err)
	}
	return cp
}

// checkIndex compares attribute a's index on r with the copy's, for
// every value a row of r ever held and one no row holds.
func checkIndex(t *testing.T, label string, r, cp *relation.Relation, a int) {
	t.Helper()
	if r.MaxDegree(a) != cp.MaxDegree(a) || r.DistinctCount(a) != cp.DistinctCount(a) {
		t.Fatalf("%s: %s attr %d: MaxDegree %d DistinctCount %d, fresh %d %d",
			label, r.Name(), a, r.MaxDegree(a), r.DistinctCount(a), cp.MaxDegree(a), cp.DistinctCount(a))
	}
	for row := 0; row <= r.Len(); row++ {
		v := relation.Value(-1)
		if row < r.Len() {
			v = r.Value(row, a)
		}
		if got, want := r.Matches(a, v), cp.Matches(a, v); !slices.Equal(got, want) || r.Degree(a, v) != len(want) {
			t.Fatalf("%s: %s attr %d value %d: rows %v (degree %d), fresh %v", label, r.Name(), a, v, got, r.Degree(a, v), want)
		}
	}
}

// ewWeights returns the weight tables session s draws join i from.
func ewWeights(t *testing.T, s *su.Session, i int) *join.Weights {
	t.Helper()
	ew, ok := core.EngineOf(s).(*core.CoverShared).Samplers()[i].(*joinsample.EW)
	if !ok {
		t.Fatal("the zero Options no longer sample joins with EW")
	}
	return ew.Weights()
}

// checkWeights compares two joins' weight tables segment by segment, the
// root's whole and every other node's value by value (entry ids differ:
// an overlaid index keeps emptied entries and numbers new values last).
func checkWeights(t *testing.T, label string, got, want *join.Weights) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: count %d, fresh %d", label, got.Count(), want.Count())
	}
	segment := func(w *join.Weights, k int, v relation.Value) ([]int32, []int64, int64) {
		e := 0
		if k > 0 {
			var ok bool
			if e, ok = w.Idx[k].EntryOf(v); !ok {
				return nil, nil, 0
			}
		}
		rows, own, scale, seg := w.Nodes[k].Segment(e)
		if seg != nil { // a large segment, flat: its blocks rebased on the directories
			for g, grp := range seg.Groups {
				for b, blk := range grp.Blocks {
					rows = append(rows, blk.Rows...)
					for _, c := range blk.Cum {
						own = append(own, seg.Sums[g]-grp.Sums[len(grp.Sums)-1]+grp.Sums[b]-blk.Cum[len(blk.Cum)-1]+c)
					}
				}
			}
		}
		cum := make([]int64, len(own)) // scale × own sums: the rows' weights
		for i, c := range own {
			cum[i] = scale * c
		}
		return rows, cum, w.Nodes[k].Total(e)
	}
	for k := range got.Nodes {
		var vals []relation.Value
		if k == 0 {
			vals = []relation.Value{0}
		} else {
			for _, ix := range []*relation.Index{got.Idx[k], want.Idx[k]} {
				for e := 0; e < ix.NumEntries(); e++ {
					vals = append(vals, ix.ValueAt(e))
				}
			}
		}
		for _, v := range vals {
			rows, cum, total := segment(got, k, v)
			wantRows, wantCum, wantTotal := segment(want, k, v)
			if !slices.Equal(rows, wantRows) || !slices.Equal(cum, wantCum) || total != wantTotal {
				t.Fatalf("%s node %d value %d: rows %v cum %v total %d, fresh %v %v %d",
					label, k, v, rows, cum, total, wantRows, wantCum, wantTotal)
			}
		}
	}
}
