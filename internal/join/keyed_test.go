package join

import (
	"slices"
	"testing"

	"sampleunion/internal/relation"
)

// TestKeyedChildRescales: on a chain shaped like UQ1's supplier level —
// nation ⋈ supplier ⋈ customer, the last two both joining on nationkey,
// so customer is supplier's keyed child — a burst of customers reaches
// supplier only through that child. The patch rescales supplier's
// segment for the nation: a new header with the new customer total as
// its scale, over its predecessor's directory and blocks, and no rows or
// running sums. Of Patch.Bytes, what customer's and nation's overlays
// wrote accounts for all but supplier's new segment header (which holds
// the scale) and its directory of large segments (8 B a segment). The
// result equals a cold build.
func TestKeyedChildRescales(t *testing.T) {
	const nations, suppliers, customers = 4, 1024, 8 // per nation
	j, customer := supplierLevel(t, nations, suppliers, customers)
	if !j.keyed(2) || j.keyed(1) {
		t.Fatalf("keyed: supplier %v, customer %v; want customer only", j.keyed(1), j.keyed(2))
	}
	prev := exactWeights(t, j)
	e, _ := prev.Idx[1].EntryOf(2)
	_, _, scale, was := prev.Nodes[1].Segment(e)
	if was == nil || scale != customers || was.Total() != suppliers*customers {
		t.Fatalf("supplier's segment for nation 2: large %v, scale %d; want a large one at scale %d", was != nil, scale, customers)
	}

	customer.AppendValues(relation.Value(nations*customers), 2)
	next, p := patchWeights(t, j, prev)
	if p.Rebuilt || !slices.Equal(p.Touched[1], []int32{int32(e)}) {
		t.Fatalf("patch %+v: want supplier's entry %d rescaled in place", p, e)
	}
	_, _, scale, seg := next.Nodes[1].Segment(e)
	switch {
	case seg == nil || seg == was:
		t.Fatalf("supplier's segment for nation 2 was not rescaled")
	case scale != customers+1 || seg.Total() != suppliers*(customers+1):
		t.Errorf("rescaled to %d, total %d; want scale %d", scale, seg.Total(), customers+1)
	case &seg.Sums[0] != &was.Sums[0] || !slices.Equal(seg.Groups, was.Groups):
		t.Errorf("the rescale wrote a directory or groups of its own")
	}
	others := overlayBytes(t, next, 0) + overlayBytes(t, next, 2)
	if got, want := p.Bytes-others, segHeader+8*len(next.Nodes[1].Large); got != want {
		t.Errorf("supplier's share of the patch's %d B: %d, want %d (a segment header and the directory of large segments)", p.Bytes, got, want)
	}
	if got, want := weightDump(next), weightDump(exactWeights(t, j)); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("patched tables differ from a cold build:\n%v\n%v", got, want)
	}
}

// supplierLevel is nation ⋈ supplier ⋈ customer, the last two joined on
// nationkey: nations nations, each with suppliers suppliers and
// customers customers. It returns the join and customer.
func supplierLevel(t *testing.T, nations, suppliers, customers int) (*Join, *relation.Relation) {
	t.Helper()
	nation := relation.New("nation", relation.NewSchema("nationkey"))
	supplier := relation.New("supplier", relation.NewSchema("suppkey", "nationkey"))
	customer := relation.New("customer", relation.NewSchema("custkey", "nationkey"))
	for n := 0; n < nations; n++ {
		nation.AppendValues(relation.Value(n))
		for i := 0; i < suppliers; i++ {
			supplier.AppendValues(relation.Value(n*suppliers+i), relation.Value(n))
		}
		for i := 0; i < customers; i++ {
			customer.AppendValues(relation.Value(n*customers+i), relation.Value(n))
		}
	}
	j, err := NewChain("uq1", []*relation.Relation{nation, supplier, customer}, []string{"nationkey", "nationkey"})
	if err != nil {
		t.Fatal(err)
	}
	return j, customer
}

// overlayBytes is what node k's overlay in w holds: its slot table,
// rows, running sums, records and scales.
func overlayBytes(t *testing.T, w *Weights, k int) int {
	t.Helper()
	ov := w.Nodes[k].ov
	if ov == nil {
		t.Fatalf("node %d's patch left no overlay", k)
	}
	return int(ov.slots.Bytes()) + 12*(len(ov.rows)+len(ov.recs)) + 8*len(ov.scale)
}

// TestKeyedChildRescalesSmallSegments: with one supplier a nation every
// supplier segment is small. A customer for one nation rescales its
// supplier segment, copied into the overlay at the new scale; a second
// successor of one generation copies it again. Customers for a third of
// the nations then overlay more than an eighth of supplier's flat arrays,
// and the node folds; a supplier appended under a rescaled nation meets
// the rescaled segment as a hit. Every generation equals a cold build,
// and stays as it was after the later patches.
func TestKeyedChildRescalesSmallSegments(t *testing.T) {
	const nations = 512
	j, customer := supplierLevel(t, nations, 1, 8)
	supplier := j.Nodes()[1].Rel
	w := exactWeights(t, j)
	type generation struct {
		w    *Weights
		want [][]string
	}
	var kept []generation
	step := func(what string) Patch {
		t.Helper()
		next, p := patchWeights(t, j, w)
		if p.Rebuilt {
			t.Fatalf("%s: the patch rebuilt the join", what)
		}
		want := weightDump(exactWeights(t, j))
		if got := weightDump(next); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: patched tables differ from a cold build", what)
		}
		kept = append(kept, generation{next, want})
		w = next
		return p
	}

	customer.AppendValues(1_000_000, 7)
	e, _ := w.Idx[1].EntryOf(7)
	if p := step("one nation"); p.Folded[1] || !slices.Equal(p.Touched[1], []int32{int32(e)}) {
		t.Fatalf("patch %+v: want entry %d rescaled in supplier's overlay", p, e)
	}

	// A first successor extends supplier's overlay in place; the step's
	// patch, a second successor of the same generation, copies it.
	customer.AppendValues(1_000_001, 11)
	sibling, _ := patchWeights(t, j, w)
	step("a second successor")
	if got, want := weightDump(sibling), kept[len(kept)-1].want; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatal("the first successor differs from a cold build")
	}

	for n := 0; n < nations; n += 3 {
		customer.AppendValues(relation.Value(2_000_000+n), relation.Value(n))
	}
	if p := step("a third of the nations"); !p.Folded[1] {
		t.Errorf("supplier's overlay of %d rescales did not fold", len(p.Touched[1]))
	}
	supplier.AppendValues(1_000_000, 9)
	customer.AppendValues(3_000_000, 9)
	step("a rescale, then a hit")
	supplier.AppendValues(1_000_001, 9)
	step("a hit on a rescaled segment")
	for _, g := range kept {
		if got := weightDump(g.w); !slices.EqualFunc(got, g.want, slices.Equal) {
			t.Fatal("a later patch wrote into an earlier generation's tables")
		}
	}
}
