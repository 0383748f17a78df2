package joinsample

import (
	"runtime"
	"slices"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
)

// fanoutChain is root(A) ⋈ mid(A, B) ⋈ leaf(B, P): the root holds one
// row per A value, mid holds segs A values of per rows each (row i has
// A = i/per and a B of its own), and leaf one row per B. touch appends
// a leaf row under the first B of each listed mid segment, which moves
// the weight of one mid row and so rewrites that segment's running sums
// without changing its rows.
type fanoutChain struct {
	j               *join.Join
	root, mid, leaf *relation.Relation
	per             int
}

func newFanoutChain(t testing.TB, segs, per int) *fanoutChain {
	t.Helper()
	c := &fanoutChain{per: per}
	c.root = relation.New("root", relation.NewSchema("A"))
	c.mid = relation.New("mid", relation.NewSchema("A", "B"))
	c.leaf = relation.New("leaf", relation.NewSchema("B", "P"))
	for a := 0; a < segs; a++ {
		c.root.AppendValues(relation.Value(a))
	}
	for i := 0; i < segs*per; i++ {
		c.mid.AppendValues(relation.Value(i/per), relation.Value(i))
		c.leaf.AppendValues(relation.Value(i), relation.Value(i))
	}
	var err error
	if c.j, err = join.NewChain("fanout", []*relation.Relation{c.root, c.mid, c.leaf}, []string{"A", "B"}); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *fanoutChain) touch(segs ...int) {
	for _, s := range segs {
		c.leaf.AppendValues(relation.Value(s*c.per), relation.Value(-1-s))
	}
	// The indexes' own catch-ups are not the patch's.
	c.root.Index(0)
	c.mid.Index(0)
	c.mid.Index(1)
	c.leaf.Index(0)
}

// TestPatchBytesOfLargeSegments: a patch that reaches 20 of a node's 100
// large segments (64 rows each) writes those segments' running sums and
// a copy of the node's directory of large segments — not the node's
// 6 400 rows. What NewEWFrom keeps is bounded by 8 B per row of every
// rewritten segment, 8 B per large segment of the patched table, and a
// constant per node. A patch that reweighs one row of a segment of 4 096
// rows writes the block holding it and the segment's directory, not the
// segment: it keeps at most 12 B per row of one block (2·join.BlockRows
// rows), 16 B per block of the directory, and the same constant per
// node.
//
// The bytes are the heap the new generation adds, read after two
// collections with every generation still reachable, so the patch's
// garbage is not counted. Neither is the scratch a join keeps for its
// patches (Join.scratch): each chain's first patch, which grows it, is
// not measured.
func TestPatchBytesOfLargeSegments(t *testing.T) {
	const (
		segs, per = 100, 64
		perNode   = 4096
	)
	touched := make([]int, 0, 20)
	for s := 0; s < segs; s += 5 {
		touched = append(touched, s)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	c := newFanoutChain(t, segs, per)
	gens := []*EW{NewEW(c.j)}
	for i := -1; i < 3; i++ {
		prev := gens[len(gens)-1]
		c.touch(touched...)
		before := heap()
		ew := newEWFrom(t, c.j, prev)
		gens = append(gens, ew)
		got := heap() - before
		if i < 0 {
			continue
		}

		p := ew.Patch()
		if p.Rebuilt || len(p.Touched[1]) != len(touched) {
			t.Fatalf("patch %+v: want mid's %d segments rewritten in place", p, len(touched))
		}
		rows, large := 0, 0
		for k := range p.Touched {
			for _, e := range p.Touched[k] {
				seg, _, _, _ := flatSegment(&ew.w.Nodes[k], int(e))
				rows += len(seg)
			}
			entries := 1
			if k > 0 {
				entries = ew.w.Idx[k].NumEntries()
			}
			for e := 0; e < entries; e++ {
				if _, _, _, seg := ew.w.Nodes[k].Segment(e); seg != nil {
					large++
				}
			}
		}
		limit := int64(8*rows + 8*large + perNode*len(ew.w.Nodes))
		t.Logf("patch %d of %d of %d large segments: %d B (bound %d)", i, len(touched), segs, got, limit)
		if got > limit {
			t.Errorf("NewEWFrom kept %d B for a patch bounded by %d B: untouched large segments were copied", got, limit)
		}
	}

	c = newFanoutChain(t, 1, 4096)
	gens = append(gens, NewEW(c.j))
	for i := -1; i < 3; i++ {
		prev := gens[len(gens)-1]
		c.touch(0)
		before := heap()
		ew := newEWFrom(t, c.j, prev)
		gens = append(gens, ew)
		got := heap() - before
		if i < 0 {
			continue
		}

		_, _, _, seg := ew.w.Nodes[1].Segment(0)
		if p := ew.Patch(); p.Rebuilt || seg == nil || seg.Len() != 4096 {
			t.Fatalf("patch %+v: want mid's one segment of 4096 rows patched in place", p)
		}
		limit := int64(12*2*join.BlockRows + 16*len(seg.Blocks) + perNode*len(ew.w.Nodes))
		t.Logf("patch %d of one row of a %d-block segment: %d B (bound %d)", i, len(seg.Blocks), got, limit)
		if got > limit {
			t.Errorf("NewEWFrom kept %d B for a one-row patch bounded by %d B: blocks the patch did not reach were copied", got, limit)
		}
	}
	runtime.KeepAlive(gens)
}

// TestLargeSegmentSplitsAndDrops drives one large segment of three blocks
// through a block that grows past 2·join.BlockRows and splits in two, and
// then a block whose rows all go and is dropped. Each patch equals a
// cold build (checkPatched), and the blocks it did not reach are the
// predecessor's own. (Four segments keep the burst inside the indexes'
// overlay budget, so neither step rebuilds the join.)
func TestLargeSegmentSplitsAndDrops(t *testing.T) {
	c := newFanoutChain(t, 4, 3*join.BlockRows)
	blocks := func(ew *EW) []*join.Block {
		_, _, _, seg := ew.w.Nodes[1].Segment(0)
		if seg == nil {
			t.Fatal("mid's segment is not a large one")
		}
		return seg.Blocks
	}
	prev := NewEW(c.j)
	if n := len(blocks(prev)); n != 3 {
		t.Fatalf("a cold build carved %d rows into %d blocks, want 3", 3*join.BlockRows, n)
	}
	for i := 0; i <= join.BlockRows; i++ {
		c.mid.AppendValues(0, relation.Value(10_000+i))
		c.leaf.AppendValues(relation.Value(10_000+i), 0)
	}
	split := checkPatched(t, "split", c.j, prev)
	if split.Patch().Rebuilt {
		t.Fatal("the split step rebuilt the join instead of patching it")
	}
	was, got := blocks(prev), blocks(split)
	if len(got) != 4 || got[0] != was[0] || got[1] != was[1] || len(got[2].Rows)+len(got[3].Rows) != 2*join.BlockRows+1 {
		t.Fatalf("the last block grew to %d rows: blocks %d → %d, first two shared %v %v",
			2*join.BlockRows+1, len(was), len(got), got[0] == was[0], got[1] == was[1])
	}
	for _, r := range got[0].Rows {
		c.mid.Delete(int(r))
	}
	dropped := checkPatched(t, "drop", c.j, split)
	if dropped.Patch().Rebuilt {
		t.Fatal("the drop step rebuilt the join instead of patching it")
	}
	if now := blocks(dropped); len(now) != 3 || now[0] != got[1] || now[1] != got[2] || now[2] != got[3] {
		t.Fatalf("the first block emptied: %d blocks, want the other 3 shared", len(now))
	}
}

// TestWeightPatchAcrossLargeRows runs patches across join.LargeRows in
// both directions — by rows appended and deleted, and by weights that
// drop to zero and come back — plus a large segment that empties, a new
// join value that opens a large one and a root that crosses, and pins
// each generation to a cold build (checkPatched: every segment, total
// and count, 64 seeded tuples, and untouched large segments
// pointer-identical to the predecessor's). Each step checks
// that its crossing happened; once the script is over, every generation
// is pinned again to the tables it had then.
func TestWeightPatchAcrossLargeRows(t *testing.T) {
	root := relation.New("root", relation.NewSchema("A", "X"))
	mid := relation.New("mid", relation.NewSchema("A", "B"))
	leaf := relation.New("leaf", relation.NewSchema("B", "P"))
	serial := 0
	addMid := func(a, n int) {
		for i := 0; i < n; i++ {
			mid.AppendValues(relation.Value(a), relation.Value(serial))
			leaf.AppendValues(relation.Value(serial), relation.Value(serial))
			serial++
		}
	}
	for a := 0; a < 5; a++ {
		root.AppendValues(relation.Value(a), relation.Value(a))
		root.AppendValues(relation.Value(a), relation.Value(100+a))
	}
	for a, n := range []int{30, 33, 40, 5, 12} {
		addMid(a, n)
	}
	j, err := join.NewChain("cross", []*relation.Relation{root, mid, leaf}, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	// size returns the rows of node k's segment for join value v (the
	// root's one segment for k = 0), and whether it is a large one.
	size := func(ew *EW, k int, v relation.Value) (int, bool) {
		ent := 0
		if k > 0 {
			var ok bool
			if ent, ok = ew.w.Idx[k].EntryOf(v); !ok {
				return 0, false
			}
		}
		rows, _, _, large := flatSegment(&ew.w.Nodes[k], ent)
		return len(rows), large != nil
	}
	midRows := func(a relation.Value) []int { return mid.Matches(0, a) }
	ew := NewEW(j)
	type generation struct {
		state string
		ew    *EW
		want  []string
	}
	var kept []generation
	for _, step := range []struct {
		name   string
		k      int
		v      relation.Value
		mutate func()
		rows   int
		large  bool
	}{
		{"rows grow past", 1, 0, func() { addMid(0, 3) }, 33, true},
		{"rows shrink below", 1, 1, func() { mid.Delete(midRows(1)[0]); mid.Delete(midRows(1)[1]) }, 31, false},
		{"weights drop below", 1, 2, func() {
			for _, r := range midRows(2)[:10] {
				leaf.Delete(leaf.Matches(0, mid.Value(r, 1))[0])
			}
		}, 30, false},
		{"weights come back", 1, 2, func() {
			for _, r := range midRows(2)[:10] {
				leaf.AppendValues(mid.Value(r, 1), -1)
			}
		}, 40, true},
		{"large segment empties", 1, 0, func() {
			for _, r := range midRows(0) {
				mid.Delete(r)
			}
		}, 0, false},
		{"new value opens large", 1, 7, func() { addMid(7, 36); root.AppendValues(7, 7) }, 36, true},
		{"root grows past", 0, 0, func() {
			for i := 0; i < 30; i++ {
				root.AppendValues(relation.Value(i%5+1), relation.Value(200+i))
			}
		}, 33, true},
		{"root shrinks below", 0, 0, func() {
			for _, r := range root.Matches(0, 1) {
				root.Delete(r)
			}
		}, 25, false},
	} {
		before, wasLarge := size(ew, step.k, step.v)
		step.mutate()
		ew = checkPatched(t, step.name, j, ew)
		kept = append(kept, generation{step.name, ew, tableDump(ew)})
		if rows, large := size(ew, step.k, step.v); rows != step.rows || large != step.large {
			t.Fatalf("%s: node %d value %d went from %d rows (large %v) to %d (large %v), want %d (large %v)",
				step.name, step.k, step.v, before, wasLarge, rows, large, step.rows, step.large)
		}
		if ew.Patch().Rebuilt {
			t.Fatalf("%s: the step rebuilt the join instead of patching it", step.name)
		}
	}
	for _, g := range kept {
		if got := tableDump(g.ew); !slices.Equal(got, g.want) {
			t.Fatalf("%s: tables changed after later patches:\n%v\nwere\n%v", g.state, got, g.want)
		}
	}
}
