package sampleunion

import (
	"fmt"
	"strings"
	"testing"
)

// foldScheduleWant is the fold schedule of TestFoldSchedule's script:
// per Refresh that folded anything, "step:i/m/n/j" with i indexes
// compacted, m membership tables rebuilt, n weight-table nodes folded
// and j joins rebuilt whole. The threshold behind it — relation.FoldBudget,
// an eighth of the base for index overlays, member deltas and weight
// overlays alike, floor 64 — decides when a refresh pays O(rows) instead
// of O(burst); a change that moves it moves this string.
var foldScheduleWant = strings.Join([]string{
	"1:0/0/2/0 2:0/0/2/0 3:0/0/2/0 5:0/0/2/0 6:0/0/2/0 7:2/0/2/0 8:0/1/0/0 9:0/0/2/0",
	"10:0/0/2/0 11:0/0/2/0 13:0/0/2/0 14:0/0/2/0 15:0/0/2/0 16:2/0/0/0 17:0/0/2/0 18:0/0/2/0 19:0/1/2/0",
	"21:0/0/2/0 22:0/0/2/0 23:0/0/2/0 25:0/0/2/0 26:2/0/2/0 27:0/0/2/0 29:0/0/2/0",
	"30:0/0/2/0 31:0/1/2/0 32:2/1/0/0 33:0/0/2/0 34:0/0/2/0 35:0/0/2/0 37:0/0/2/0 38:2/0/2/0 39:0/0/2/0",
	"41:0/0/2/0 42:0/0/2/0 43:0/0/2/0 45:0/1/2/0 46:0/0/2/0 47:0/0/2/0 49:0/0/2/0",
	"50:0/0/2/0 51:2/0/2/0 53:0/0/2/0 54:0/0/2/0 55:0/0/2/0 57:0/0/2/0 58:0/0/2/0 59:0/0/2/0",
}, " ")

// TestFoldSchedule runs a fixed script of 32-row bursts — new customers
// with an order each every fourth step, orders of existing customers
// otherwise, a delete every third step — through a live two-join session
// under the zero Options, refreshing after every step, and pins the steps
// at which indexes compacted, membership tables were rebuilt and weight
// tables folded (RefreshStats). Only east's membership tables are built
// and kept up: an owner probe asks only the joins before the one it drew
// from, so nothing probes west, the last join. Each join's root is one
// large segment of blocks and counts as folded when the blocks a burst
// reaches hold more than an eighth of it: orders of existing customers
// reach most of its blocks, while the new customers of every fourth step
// land in its last ones, and the block a delete reaches (join.BlockRows
// rows or so) is too small to tip those steps over, so they fold no
// root. Each join's leaf, ord, keeps no table: it folds nothing, and its
// index's compactions rebuild no join. Each root's index on custkey, the
// parent side of the join's one edge, builds on the first Refresh, after
// step 0's burst.
func TestFoldSchedule(t *testing.T) {
	const rows, batch = 2000, 32
	var rels []*Relation
	mk := func(suffix string, lo, hi int) *Join {
		a := NewRelation("cust_"+suffix, NewSchema("custkey", "nationkey"))
		o := NewRelation("ord_"+suffix, NewSchema("orderkey", "custkey"))
		for k := lo; k < hi; k++ {
			a.AppendValues(Value(k), Value(k%25))
			o.AppendValues(Value(k*10), Value(k))
		}
		j, err := Chain("J_"+suffix, []*Relation{a, o}, []string{"custkey"})
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, a, o)
		return j
	}
	u, err := NewUnion(mk("east", 0, rows), mk("west", rows/2, rows+rows/2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := u.Prepare(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for step := 0; step < 60; step++ {
		switch {
		case step%4 == 0: // new customers, an order each
			appendBurst(rels, step, batch, 10*rows)
		default: // orders of existing customers: their segments grow
			for ri := 1; ri < len(rels); ri += 2 {
				for i := 0; i < batch; i++ {
					k := Value(rows/2*(ri/2) + (step*97+i*31)%rows)
					rels[ri].AppendValues(k*10+Value(step), k)
				}
			}
		}
		if step%3 == 2 {
			rels[3].Delete(step * 7 % rels[3].Len())
		}
		if err := s.Refresh(); err != nil {
			t.Fatal(err)
		}
		st := s.RefreshStats()
		if st.IndexesCompacted+st.MembersRebuilt+st.NodesRebuilt+st.JoinsRebuilt > 0 {
			got = append(got, fmt.Sprintf("%d:%d/%d/%d/%d", step, st.IndexesCompacted, st.MembersRebuilt, st.NodesRebuilt, st.JoinsRebuilt))
		}
	}
	if g := strings.Join(got, " "); g != foldScheduleWant {
		t.Errorf("fold schedule\n got %s\nwant %s", g, foldScheduleWant)
	}
}
