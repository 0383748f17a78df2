package join

import (
	"slices"
	"testing"

	"sampleunion/internal/relation"
)

// TestOneHitPatchWritesOneBlock: on root ⋈ mid ⋈ leaf with mid one
// segment of 20 000 rows, a leaf row appended under one mid row's value
// reweighs that row alone. The patch writes the block holding it, that
// block's group and the segment's top directory, and shares every other
// block and group with the predecessor. Of Patch.Bytes, what root's
// overlay wrote (the leaf writes nothing) accounts for all but at most
// one block of 2·BlockRows rows, one group directory of 2·GroupBlocks
// blocks, the top directory, their headers and the node's list of large
// segments. The result equals a cold build.
func TestOneHitPatchWritesOneBlock(t *testing.T) {
	const rows = 20000
	root := relation.New("root", relation.NewSchema("A"))
	mid := relation.New("mid", relation.NewSchema("A", "B"))
	leaf := relation.New("leaf", relation.NewSchema("B", "P"))
	root.AppendValues(0)
	for i := 0; i < rows; i++ {
		mid.AppendValues(0, relation.Value(i))
		leaf.AppendValues(relation.Value(i), relation.Value(i))
	}
	j, err := NewChain("onehit", []*relation.Relation{root, mid, leaf}, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	prev := exactWeights(t, j)
	leaf.AppendValues(rows/2+7, -1)
	next, p := patchWeights(t, j, prev)
	_, _, _, was := prev.Nodes[1].Segment(0)
	_, _, _, seg := next.Nodes[1].Segment(0)
	if p.Rebuilt || was == nil || seg == nil || seg.Len() != rows {
		t.Fatalf("patch %+v: want mid's one segment of %d rows patched in place", p, rows)
	}
	if len(seg.Groups) != len(was.Groups) || len(seg.Groups) < 2 {
		t.Fatalf("%d groups, were %d: want the same, two or more", len(seg.Groups), len(was.Groups))
	}
	var blocks []*Block
	for _, g := range was.Groups {
		blocks = append(blocks, g.Blocks...)
	}
	groups, written := 0, 0 // the groups and blocks the patch wrote
	for _, g := range seg.Groups {
		if slices.Contains(was.Groups, g) {
			continue
		}
		groups++
		for _, b := range g.Blocks {
			if !slices.Contains(blocks, b) {
				written++
			}
		}
	}
	if groups != 1 || written != 1 {
		t.Errorf("the patch wrote %d groups and %d blocks, want one of each", groups, written)
	}
	others := overlayBytes(t, next, 0) + overlayBytes(t, next, 2)
	limit := blockHeader + 12*2*BlockRows + groupHeader + 16*2*GroupBlocks + segHeader + 16*len(seg.Groups) + 8*len(next.Nodes[1].Large)
	got := p.Bytes - others
	t.Logf("mid's share of the patch: %d B over %d groups (bound %d)", got, len(seg.Groups), limit)
	if got > limit {
		t.Errorf("mid's share of the patch's %d B: %d, want at most %d (one block, its group and the top directory)", p.Bytes, got, limit)
	}
	if got, want := weightDump(next), weightDump(exactWeights(t, j)); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("patched tables differ from a cold build")
	}
}
