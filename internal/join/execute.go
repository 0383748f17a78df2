package join

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"sampleunion/internal/relation"
)

// Enumerate streams every join result tuple to yield; enumeration stops
// early when yield returns false. This is the FullJoin brute force the
// paper uses as ground truth (§9); tuples passed to yield are reused
// between calls, so clone them to retain.
func (j *Join) Enumerate(yield func(relation.Tuple) bool) {
	out := make(relation.Tuple, j.out.Len())
	var rv ResView
	if j.res != nil {
		rv = j.res.View()
	}
	j.enumerate(0, out, rv, yield)
}

// enumerate extends the partial output with node k's rows; when all
// skeleton nodes are assigned it applies the residual probe (if any)
// and emits.
func (j *Join) enumerate(k int, out relation.Tuple, rv ResView, yield func(relation.Tuple) bool) bool {
	if k == len(j.nodes) {
		if j.res == nil {
			return yield(out)
		}
		for _, ri := range rv.Match(out) {
			rv.FillInto(ri, out)
			if !yield(out) {
				return false
			}
		}
		return true
	}
	// Row ids before columns: relations may grow meanwhile, storage is
	// monotone, so columns read after an id always hold it.
	n := &j.nodes[k]
	if k == 0 {
		rows := n.Rel.Len()
		cols := n.Rel.Cols()
		for i := 0; i < rows; i++ {
			if !n.Rel.Live(i) {
				continue
			}
			for _, e := range n.emit {
				out[e[1]] = cols[e[0]][i]
			}
			if !j.enumerate(k+1, out, rv, yield) {
				return false
			}
		}
		return true
	}
	parentVal := out[j.nodes[n.Parent].proj[n.ParentAttrPos]]
	matches := n.Rel.Matches(n.AttrPos, parentVal)
	cols := n.Rel.Cols()
	for _, i := range matches {
		for _, e := range n.emit {
			out[e[1]] = cols[e[0]][i]
		}
		if !j.enumerate(k+1, out, rv, yield) {
			return false
		}
	}
	return true
}

// Count returns the exact join result size. For tree joins it uses the
// bottom-up weight recurrence (each tuple's exact extension count, the
// EW statistic of Zhao et al.), which runs in time linear in the input
// rather than the output; cyclic joins fall back to enumeration. A tree
// join of more than math.MaxInt64 results counts as math.MaxInt64.
func (j *Join) Count() int64 {
	if j.res == nil {
		ws, err := j.ExactWeights()
		if err != nil {
			return math.MaxInt64
		}
		return ws.Count()
	}
	var total int64
	j.Enumerate(func(relation.Tuple) bool {
		total++
		return true
	})
	return total
}

// LargeRows is the length from which a weight segment stands alone as a
// LargeSegment, and from which an EW draw searches running sums from a
// proportional guess instead of bisecting them (joinsample.searchCum).
const LargeRows = 32

// BlockRows is the size a large segment's rows are carved to, and
// GroupBlocks the size its blocks are grouped to: a run of m rows (or
// blocks) is one piece while m <= 2·size, else m/size pieces of equal
// size within one (parts). The cold build carves every large segment so,
// and a patch carves the blocks and groups it rewrote so: a block or a
// group split when it grew past twice its size, dropped when it emptied.
const (
	BlockRows   = 32
	GroupBlocks = 32
)

// parts returns how many pieces of about size a run of m is carved into.
func parts(m, size int) int {
	if m <= 2*size {
		return min(m, 1)
	}
	return m / size
}

// Block is a run of a large segment's rows, ascending, with their running
// weight sums counted from the block's first row. Immutable once
// published: groups and generations share it by pointer.
type Block struct {
	Rows []int32
	Cum  []int64
}

// Group is a run of a large segment's blocks, in row order, under their
// directory: Sums[b] is the running own-weight total through Blocks[b],
// counted from the group's first block. Immutable once published:
// segments and generations share it by pointer.
type Group struct {
	Sums   []int64
	Blocks []*Block
}

// LargeSegment is a weight segment of at least LargeRows rows, held apart
// from its node's flat arrays in a two-level tree: blocks of rows under
// groups of blocks. Sums is its top directory: Sums[g] is the running
// own-weight total through Groups[g], so the segment's total is Scale
// times the last. Immutable once published, so generations share it by
// pointer: a patch that does not reach it copies nothing of it, one that
// rescales it writes a new header over the same directory and groups, and
// one whose hits reach it writes the blocks holding its hit rows, their
// groups and a new top directory, and shares every other block and group.
// A segment, its directories and its blocks are carved from slabs shared
// with the node's other segments that one cold build (packer) or one
// patch (patchScratch.large) wrote, so a block or group shared forward
// keeps that build's or patch's slabs alive. Where block and group
// boundaries fall changes no draw: EW finds the first row whose running
// sum exceeds its draw, searching the top directory, a group's and then
// a block (joinsample.searchLarge).
type LargeSegment struct {
	Ent    int32 // the index entry whose rows these are
	Scale  int64 // the factor every row shares (WeightTable); 1 at a node without keyed children
	Sums   []int64
	Groups []*Group
}

// Total returns the summed weight of the segment's rows.
func (s *LargeSegment) Total() int64 { return s.Scale * s.Sums[len(s.Sums)-1] }

// Len returns the segment's rows.
func (s *LargeSegment) Len() int {
	n := 0
	for _, g := range s.Groups {
		for _, b := range g.Blocks {
			n += len(b.Rows)
		}
	}
	return n
}

// sum sets the top directory from the groups' totals; it is false when a
// running total, or the scaled total, passes math.MaxInt64.
func (s *LargeSegment) sum() bool {
	var total int64
	for g, grp := range s.Groups {
		if total += grp.Sums[len(grp.Sums)-1]; total < 0 {
			return false
		}
		s.Sums[g] = total
	}
	_, fits := mulWeight(s.Scale, total)
	return fits
}

// sum sets the group's directory from its blocks' totals; it is false
// when a running total passes math.MaxInt64.
func (g *Group) sum() bool {
	var total int64
	for b, blk := range g.Blocks {
		if total += blk.Cum[len(blk.Cum)-1]; total < 0 {
			return false
		}
		g.Sums[b] = total
	}
	return true
}

// The bytes of a header a build or a patch carves (Patch.Bytes).
const (
	blockHeader = int(unsafe.Sizeof(Block{}))
	groupHeader = int(unsafe.Sizeof(Group{}))
	segHeader   = int(unsafe.Sizeof(LargeSegment{}))
)

// slabs is what one cold build (packer) or one patch
// (patchScratch.large) carves a node's large segments from, each taken
// from its front: block and group headers, the groups' block pointers,
// the segments' group pointers, and the running sums of both levels of
// directory.
type slabs struct {
	blocks []Block
	groups []Group
	bdir   []*Block
	gdir   []*Group
	sums   []int64
}

// carve appends to blocks, a run at s.bdir's front, the
// parts(len(rows), BlockRows) blocks one run of a segment's rows —
// ascending, with running sums counted from the run's first row — is
// split into, rebasing each block's sums in place to count from its own
// first row.
func (s *slabs) carve(blocks []*Block, rows []int32, cum []int64) []*Block {
	n, nb := len(rows), parts(len(rows), BlockRows)
	for b := nb - 1; b > 0; b-- { // last first: a block's base is a sum before it, not yet rebased
		lo, hi := b*n/nb, (b+1)*n/nb
		for i, base := lo, cum[lo-1]; i < hi; i++ {
			cum[i] -= base
		}
	}
	for b := 0; b < nb; b++ {
		lo, hi := b*n/nb, (b+1)*n/nb
		s.blocks[b] = Block{Rows: rows[lo:hi:hi], Cum: cum[lo:hi:hi]}
		blocks = append(blocks, &s.blocks[b])
	}
	s.blocks = s.blocks[nb:]
	return blocks
}

// group files blocks, a run at s.bdir's front in row order, under the
// parts(len(blocks), GroupBlocks) groups it is split into, each with its
// directory, and appends them to seg.Groups, a run at s.gdir's front. It
// is false when a running total passes math.MaxInt64.
func (s *slabs) group(seg *LargeSegment, blocks []*Block) bool {
	nb, ng, ok := len(blocks), parts(len(blocks), GroupBlocks), true
	for g := 0; g < ng; g++ {
		lo, hi := g*nb/ng, (g+1)*nb/ng
		s.groups[g] = Group{Sums: s.sums[lo:hi:hi], Blocks: blocks[lo:hi:hi]}
		ok = s.groups[g].sum() && ok
		seg.Groups = append(seg.Groups, &s.groups[g])
	}
	s.groups, s.bdir, s.sums = s.groups[ng:], s.bdir[nb:], s.sums[nb:]
	return ok
}

// seal ends seg, whose groups were appended at s.gdir's front, with its
// top directory; it is false when a running total, or the scaled total,
// passes math.MaxInt64.
func (s *slabs) seal(seg *LargeSegment) bool {
	ng := len(seg.Groups)
	seg.Groups, s.gdir = seg.Groups[:ng:ng], s.gdir[ng:]
	seg.Sums, s.sums = s.sums[:ng:ng], s.sums[ng:]
	return seg.sum()
}

// WeightTable is one join node's exact weights, packed the way the EW
// sampler draws from them: per entry of the node's index, a segment of
// the value's rows with positive own weight, in index order, with their
// running own-weight sums and a scale, so a segment's total — scale times
// its last sum — is what its parent multiplies by. The root is one entry
// holding its rows in row order. A leaf's rows weigh 1 each, so its
// segments would copy its index, running sums 1, 2, …, deg: it keeps the
// zero WeightTable instead, and Weights.Total reads its index.
//
// A row's weight is the product of its children's segment totals. The
// node's keyed children (Join.keyed: those joining on the node's own
// index attribute) give every row of a segment the same factor, its
// scale; a row's own weight is the product over the other children
// (1 when there are none). A segment keeps the rows of positive own
// weight even at scale 0 (a keyed child lacks the value), so a keyed
// child's moved total only rescales it: PatchWeights gives a large
// segment a new scale and writes no rows or sums, and copies a small one,
// of fewer than LargeRows rows, into the overlay at its new scale.
//
// A segment of LargeRows rows or more is a LargeSegment, listed by entry
// in Large. The small ones are flat arrays — segment e is
// Rows[Off[e]:Off[e+1]], Cum likewise, empty for a large entry, and its
// scale Scale[e] (nil, every scale 1, at a node without keyed children)
// — plus an optional overlay, like the index they are aligned to:
// PatchWeights files the small segments it recomputed or rescaled in an
// overlay beside the predecessor's flat arrays, which the two
// generations share. Segment and Total read all of them.
type WeightTable struct {
	Off   []int32
	Rows  []int32
	Cum   []int64
	Scale []int64
	Large []*LargeSegment
	ov    *segOverlay // nil = flat
}

// Segment returns entry e's segment without copying anything: a small
// one's rows, running sums and scale, or the LargeSegment holding a large
// one's (rows and sums nil then, the scale its own); nothing for an entry
// without rows. Only a patched table pays the overlay's search, and only
// an entry with no small segment Large's.
func (t *WeightTable) Segment(e int) ([]int32, []int64, int64, *LargeSegment) {
	rows, cum, scale := t.flat(e)
	if t.ov != nil {
		rows, cum, scale = t.ov.segment(t, e)
	}
	if len(rows) > 0 || len(t.Large) == 0 {
		return rows, cum, scale, nil
	}
	i, ok := slices.BinarySearchFunc(t.Large, int32(e), func(s *LargeSegment, e int32) int { return cmp.Compare(s.Ent, e) })
	if !ok {
		return nil, nil, 0, nil
	}
	return nil, nil, t.Large[i].Scale, t.Large[i]
}

// flat returns entry e's segment in the flat arrays: empty for an entry
// past them, which the index gained after they were packed.
func (t *WeightTable) flat(e int) ([]int32, []int64, int64) {
	if e+1 >= len(t.Off) {
		return nil, nil, 0
	}
	lo, hi, scale := t.Off[e], t.Off[e+1], int64(1)
	if t.Scale != nil {
		scale = t.Scale[e]
	}
	return t.Rows[lo:hi], t.Cum[lo:hi], scale
}

// Total returns the summed weight of entry e's rows: a large segment's
// Total, a small one's scale times its last running sum.
func (t *WeightTable) Total(e int) int64 {
	_, cum, scale, seg := t.Segment(e)
	switch {
	case seg != nil:
		return seg.Total()
	case len(cum) > 0:
		return scale * cum[len(cum)-1]
	}
	return 0
}

// ErrWeightOverflow reports a join whose exact weights pass
// math.MaxInt64: a row's result count, or a segment's running sum of
// them. EW draws a row by an exact integer draw below its segment's
// total, so such a join cannot be sampled with EW.
var ErrWeightOverflow = errors.New("exact weights overflow int64")

func (j *Join) overflow() error { return fmt.Errorf("join %s: %w", j.name, ErrWeightOverflow) }

// mulWeight multiplies two weights, which are never negative; ok is false
// when the product passes math.MaxInt64. (A sum of two such weights
// passes it exactly when it wraps negative.)
func mulWeight(a, b int64) (_ int64, ok bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

// keyed reports whether node c joins its parent, a node other than the
// root, on the parent's own index attribute. Every row of one of the
// parent's segments then holds the value c matches, so c's total for it
// is a factor of the segment's scale rather than of its rows' own
// weights (WeightTable).
func (j *Join) keyed(c int) bool {
	p := j.nodes[c].Parent
	return p > 0 && j.nodes[c].ParentAttrPos == j.nodes[p].AttrPos
}

// leaf reports whether node k is a leaf: a node other than the root
// without children. Its rows weigh 1 each, so its segment for a value is
// the value's row list in its index, and it keeps no WeightTable.
func (j *Join) leaf(k int) bool { return k > 0 && len(j.nodes[k].Children) == 0 }

// scale returns the scale of entry e of node k's table over ws: the
// product of k's keyed children's totals for the entry's value, 0 when
// one lacks it, 1 when k has none. ok is false when the product passes
// math.MaxInt64.
func (j *Join) scale(k, e int, ws *Weights) (s int64, ok bool) {
	s = 1
	for _, c := range j.nodes[k].Children {
		if !j.keyed(c) {
			continue
		}
		if s, ok = mulWeight(s, ws.Total(c, ws.Idx[k].ValueAt(e))); !ok || s == 0 {
			return s, ok
		}
	}
	return s, true
}

// scaled reports whether a segment of own total own at scale s (sok: the
// scale itself fits) totals at most math.MaxInt64.
func scaled(s int64, sok bool, own int64) bool {
	_, fits := mulWeight(s, own)
	return own == 0 || sok && fits
}

// size returns the rows of t's flat arrays and large segments.
func (t *WeightTable) size() (rows int) {
	rows = len(t.Rows)
	for _, s := range t.Large {
		rows += s.Len()
	}
	return rows
}

// bytes returns the storage t holds (Patch.Bytes): its flat arrays, and
// its large segments' rows, sums, directories and headers.
func (t *WeightTable) bytes() int {
	n := 4*len(t.Off) + 12*t.size() + (8+segHeader)*len(t.Large) + 8*len(t.Scale)
	for _, s := range t.Large {
		n += (16 + groupHeader) * len(s.Groups)
		for _, g := range s.Groups {
			n += (16 + blockHeader) * len(g.Blocks)
		}
	}
	return n
}

func (t *WeightTable) end() { t.Off = append(t.Off, int32(len(t.Rows))) }

// Weights is the Exact Weight (EW) statistic of Zhao et al. (§3.2) over
// one reading of the join's relations: for every node and row, the exact
// number of results of the node's subtree the row participates in.
// Dangling and tombstoned rows weigh 0 (the paper's relaxation of
// key–foreign-key joins, extended to live relations) and are not
// stored. A leaf's rows weigh 1 each: its segment for a value is the
// value's live rows in Idx, its total their number, and its table is
// the zero WeightTable. The residual (cyclic case) is not included;
// samplers handle it by rejection.
type Weights struct {
	// Vers is StateVersions read before anything else, so a mutation
	// racing the build leaves Vers behind the join's and the weights
	// read as stale.
	Vers []uint64
	// Idx[k] is node k's join-attribute index, the one Nodes[k]'s
	// segments are aligned to (nil for the root), and a leaf's segments.
	Idx   []*relation.Index
	Nodes []WeightTable
}

// Count returns the exact skeleton result count, |J| for tree joins.
func (w *Weights) Count() int64 { return w.Nodes[0].Total(0) }

// Leaf reports whether node k is a leaf (Join.leaf): its table is the
// zero WeightTable, and its segment for a value the value's rows in
// Idx[k].
func (w *Weights) Leaf(k int) bool { return k > 0 && w.Nodes[k].Off == nil }

// Total returns node k's total for value v, the factor a parent row
// holding v takes from it: the summed weight of v's segment, at a leaf
// the value's degree in its index; 0 for a value the index lacks. k is
// not the root.
func (w *Weights) Total(k int, v relation.Value) int64 {
	if w.Leaf(k) {
		return int64(w.Idx[k].Degree(v))
	}
	e, ok := w.Idx[k].EntryOf(v)
	if !ok {
		return 0
	}
	return w.Nodes[k].Total(e)
}

// ExactWeights computes the join's Weights in one bottom-up pass with a
// fixed number of allocations per node: a node's own row weights are the
// product of its children's segment totals, the keyed children's apart
// as each segment's scale, and packing them along the node's own index
// yields the totals its parent needs. A leaf packs nothing: its index is
// its segments. Relations may mutate meanwhile: each node's index is
// fetched before its storage snapshot, storage is monotone, so every
// indexed row id is inside the snapshot, and liveness is read from that
// snapshot alone. A weight past math.MaxInt64 is ErrWeightOverflow.
func (j *Join) ExactWeights() (*Weights, error) {
	// A patch follows every node's log from Vers on: turned on first, no
	// log starts past them — the root's is turned on by nothing else.
	for k := range j.nodes {
		j.nodes[k].Rel.LogMutations()
	}
	ws := &Weights{
		Vers:  j.StateVersions(),
		Idx:   make([]*relation.Index, len(j.nodes)),
		Nodes: make([]WeightTable, len(j.nodes)),
	}
	for k := 1; k < len(j.nodes); k++ {
		ws.Idx[k] = j.nodes[k].Rel.Index(j.nodes[k].AttrPos)
	}
	snaps := make([]relation.SnapshotData, len(j.nodes))
	most := 0
	for k := range j.nodes {
		if !j.leaf(k) {
			snaps[k] = j.nodes[k].Rel.CaptureSnapshot()
			most = max(most, snaps[k].Rows)
		}
	}
	scratch := make([]int64, most) // the row weights of the node in hand
	// Reverse topological order: children first.
	for k := len(j.nodes) - 1; k >= 0; k-- {
		if j.leaf(k) {
			continue
		}
		s := &snaps[k]
		w := scratch[:s.Rows]
		for i := range w {
			w[i] = 0
			if s.IsLive(i) {
				w[i] = 1
			}
		}
		pk := packer{w: w}
		for _, c := range j.nodes[k].Children {
			if j.keyed(c) {
				pk.scale = func(e int) (int64, bool) { return j.scale(k, e, ws) }
				continue
			}
			col := s.Cols[j.nodes[c].ParentAttrPos]
			for i, wi := range w {
				if wi == 0 {
					continue
				}
				var ok bool
				if w[i], ok = mulWeight(wi, ws.Total(c, col[i])); !ok {
					return nil, j.overflow()
				}
			}
		}
		// A first pass over the entries sizes every array, a second fills
		// them.
		if k == 0 {
			root := make([]int, s.Rows)
			for i := range root {
				root[i] = i
			}
			pk.entry(root)
			pk.fill(&ws.Nodes[k], 1)
			pk.entry(root)
		} else {
			ws.Idx[k].EachEntry(pk.entry)
			pk.fill(&ws.Nodes[k], ws.Idx[k].NumEntries())
			ws.Idx[k].EachEntry(pk.entry)
		}
		if pk.overflow {
			return nil, j.overflow()
		}
	}
	return ws, nil
}

// packer lays one node's positive row weights out as its WeightTable,
// one entry at a time: small segments into the flat arrays, large ones
// carved into blocks and groups (slabs). One array of rows and one of
// sums hold both, the latter the large segments' directories too, and
// one slab each the segments, block and group headers and directories'
// pointers. Until fill names the table it only counts what the arrays
// must hold. A patch carves the large segments it rewrites the same way
// (patchScratch.large). scale, nil at a node without keyed children, is
// Join.scale for the node's entries. overflow records a running sum or a
// scaled total past math.MaxInt64.
type packer struct {
	slabs
	w                                      []int64
	scale                                  func(e int) (int64, bool)
	t                                      *WeightTable
	small, large, nLarge, nBlocks, nGroups int
	segs                                   []LargeSegment
	rows                                   []int32
	cum                                    []int64
	overflow                               bool
}

func (p *packer) entry(rows []int) {
	n := 0
	for _, r := range rows {
		if p.w[r] > 0 {
			n++
		}
	}
	var own int64
	switch t := p.t; {
	case t == nil && n >= LargeRows:
		nb := parts(n, BlockRows)
		p.large, p.nLarge, p.nBlocks, p.nGroups = p.large+n, p.nLarge+1, p.nBlocks+nb, p.nGroups+parts(nb, GroupBlocks)
	case t == nil:
		p.small += n
	case n < LargeRows:
		t.Rows, t.Cum, own = p.appendPositive(t.Rows, t.Cum, rows)
		if t.Scale != nil {
			t.Scale = append(t.Scale, p.scaleOf(len(t.Off)-1, own))
		}
		t.end()
	default:
		seg, lo := &p.segs[len(t.Large)], len(p.rows)
		p.rows, p.cum, own = p.appendPositive(p.rows, p.cum, rows)
		seg.Ent, seg.Groups = int32(len(t.Off)-1), p.gdir[:0]
		seg.Scale = p.scaleOf(int(seg.Ent), own)
		p.group(seg, p.carve(p.bdir[:0], p.rows[lo:], p.cum[lo:]))
		p.seal(seg)
		t.Large = append(t.Large, seg)
		if t.Scale != nil {
			t.Scale = append(t.Scale, 0)
		}
		t.end()
	}
}

// scaleOf returns the scale of entry e, whose rows' own weights total
// own, recording an overflow of the scale or the scaled total.
func (p *packer) scaleOf(e int, own int64) int64 {
	if p.scale == nil {
		return 1
	}
	s, ok := p.scale(e)
	p.overflow = p.overflow || !scaled(s, ok, own)
	return s
}

// appendPositive appends the rows of one entry that weigh more than zero,
// in order, and their running weight sums; it also returns their total.
func (p *packer) appendPositive(rows []int32, cum []int64, entry []int) ([]int32, []int64, int64) {
	var sum int64
	for _, r := range entry {
		if w := p.w[r]; w > 0 {
			sum += w
			p.overflow = p.overflow || sum < 0
			rows, cum = append(rows, int32(r)), append(cum, sum)
		}
	}
	return rows, cum, sum
}

// fill allocates t's arrays, for entries entries, at the sizes counted
// so far, and turns the packer to filling them.
func (p *packer) fill(t *WeightTable, entries int) {
	small, large := p.small, p.small+p.large
	rows, cum := make([]int32, large), make([]int64, large+p.nBlocks+p.nGroups)
	*t = WeightTable{Off: make([]int32, 1, entries+1), Rows: rows[:0:small], Cum: cum[:0:small]}
	if p.scale != nil {
		t.Scale = make([]int64, 0, entries)
	}
	p.rows, p.cum = rows[small:small:large], cum[small:small:large]
	if p.nLarge > 0 {
		p.segs, t.Large = make([]LargeSegment, p.nLarge), make([]*LargeSegment, 0, p.nLarge)
		p.slabs = slabs{
			blocks: make([]Block, p.nBlocks), groups: make([]Group, p.nGroups),
			bdir: make([]*Block, p.nBlocks), gdir: make([]*Group, p.nGroups), sums: cum[large:],
		}
	}
	p.t = t
}

// OlkenBound returns the extended Olken upper bound on the join size:
// |R_root| · Π over non-root nodes of M_attr(R) (§3.2), times M(S_R)
// for cyclic joins. It is 0 when any relation is empty.
func (j *Join) OlkenBound() float64 {
	bound := float64(j.nodes[0].Rel.LiveLen())
	for k := 1; k < len(j.nodes); k++ {
		n := &j.nodes[k]
		bound *= float64(n.Rel.MaxDegree(n.AttrPos))
	}
	if j.res != nil {
		bound *= float64(j.res.MaxDegree())
	}
	return bound
}
