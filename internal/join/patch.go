package join

import (
	"cmp"
	"slices"

	"sampleunion/internal/relation"
)

// Patch reports how PatchWeights derived a Weights generation from its
// predecessor. A leaf keeps no table, so it is in none of it: it is
// never touched or folded, writes no bytes, and its index's compaction
// rebuilds nothing.
type Patch struct {
	// Rebuilt: the join was rebuilt flat by ExactWeights — there was no
	// predecessor, the index of a node with children had been compacted
	// onto a new base (which renumbers the entries its table is aligned
	// to), or a relation no longer retained the mutation-log tail since
	// the predecessor.
	Rebuilt bool
	// Touched[k] lists, ascending, the entries of node k whose segments
	// were rewritten or rescaled (a keyed child's total moved, so their
	// scale did and their rows and own sums did not: WeightTable); every
	// other segment is the predecessor's. Nil when Rebuilt.
	Touched [][]int32
	// Folded[k]: node k's small segments' overlay outgrew an eighth of
	// their flat arrays and was folded, with the untouched ones, into
	// fresh flat arrays, or the patch reached every entry of the node and
	// the rows it wrote there — a small segment's all, a large segment's
	// merged blocks only — pass an eighth of it: in both cases O(rows)
	// work. A patch that reaches a large root writes only the blocks
	// holding its hit rows, so it reads folded only when those do.
	Folded []bool
	// Bytes is the weight-table storage the patch wrote: running sums,
	// row lists, offsets, scales, overlay records, the overlay slot tables
	// it allocated (an overlay extended in place allocates none), and of
	// a large segment it rewrote the blocks it carved (not the ones it
	// shares), the directories of the groups it wrote and of the segment
	// (16 B an entry: a running total and a pointer) and the headers of
	// the segment (64 B), those groups and those blocks (48 B each), and
	// the node's list of large segments; the whole tables when Rebuilt. A
	// rescaled large segment counts its header and shares its directory
	// and groups; a rescaled small one is copied into the overlay at its
	// new scale, its rows and sums as they were.
	Bytes int
}

// reweigh names one row whose weight may have moved, and the entry of
// its node whose segment it sits in; w is its weight afresh (weigh).
type reweigh struct {
	ent, row int32
	w        int64
}

// PatchWeights derives the join's current Weights from prev, a
// generation built over older versions of the same relations, in time
// bounded by the mutations' neighbourhood instead of the join. Each
// node's log tail since prev names the rows that came or went; bottom-up,
// the segments holding them are rewritten — a named row weighed afresh,
// every other row keeping the weight prev recorded — and a value whose
// total moved names, through the index on the parent's copy of the join
// attribute, the parent rows to weigh afresh in turn, or the entry of a
// keyed parent to rescale. A leaf has no segments to rewrite: the values
// of its tail's rows whose degree moved (leafMoved) go up the same way.
// Everything else is shared with prev. The result's Segment, Total and
// Count equal those of a flat ExactWeights over the same indexes, which
// is also what the patch falls back to when it cannot follow the delta
// (see Patch.Rebuilt).
//
// Relations may mutate meanwhile, under the discipline of ExactWeights
// (versions, then indexes, then snapshots) with the log tails read last:
// a tail then names every mutation the indexes and snapshots reflect,
// and because a named row is weighed from current state rather than
// adjusted, naming one twice — here, or again from the next generation,
// whose Vers predate the mutation — is harmless. A weight past
// math.MaxInt64 is ErrWeightOverflow, as in ExactWeights.
func (j *Join) PatchWeights(prev *Weights) (*Weights, Patch, error) {
	rebuilt := func() (*Weights, Patch, error) {
		ws, err := j.ExactWeights()
		if err != nil {
			return nil, Patch{}, err
		}
		p := Patch{Rebuilt: true}
		for k := range ws.Nodes {
			p.Bytes += ws.Nodes[k].bytes()
		}
		return ws, p, nil
	}
	if prev == nil {
		return rebuilt()
	}
	n := len(j.nodes)
	ws := &Weights{
		Vers:  j.StateVersions(),
		Idx:   make([]*relation.Index, n),
		Nodes: make([]WeightTable, n),
	}
	// up[k] indexes the parent's rows by node k's join attribute: the
	// way from a moved value of k to the parent rows it reweighs.
	up := make([]*relation.Index, n)
	for k := 1; k < n; k++ {
		nd := &j.nodes[k]
		ws.Idx[k] = nd.Rel.Index(nd.AttrPos)
		if !j.leaf(k) && !ws.Idx[k].SameBase(prev.Idx[k]) {
			return rebuilt()
		}
		up[k] = j.nodes[nd.Parent].Rel.Index(nd.ParentAttrPos)
	}
	snaps := make([]relation.SnapshotData, n)
	for k := range j.nodes {
		snaps[k] = j.nodes[k].Rel.CaptureSnapshot()
	}
	tails := make([][]relation.Mutation, n)
	for k := range j.nodes {
		tail, _, ok := j.nodes[k].Rel.MutationsSince(prev.Vers[k])
		if !ok {
			return rebuilt()
		}
		tails[k] = tail
	}

	p := Patch{Touched: make([][]int32, n), Folded: make([]bool, n)}
	// moved[k]: the values of node k whose total changed, which is all a
	// parent's weights can see of them; a stretch of sc.moved.
	moved := make([][]relation.Value, n)
	sc := j.scratch.Swap(nil)
	if sc == nil {
		sc = new(patchScratch)
	}
	defer j.scratch.Store(sc)
	hits := sc.hits
	sc.moved = sc.moved[:0]
	for k := n - 1; k >= 0; k-- {
		nd, s := &j.nodes[k], &snaps[k]
		if j.leaf(k) {
			lo := len(sc.moved)
			sc.moved = j.leafMoved(k, ws.Idx[k], prev.Idx[k], s, tails[k], sc.moved)
			moved[k] = sc.moved[lo:]
			continue
		}
		hits = hits[:0]
		// hit names a row of node k, dead or alive: storage keeps a
		// deleted row's values.
		hit := func(row int) {
			e := 0 // the root is one entry, whatever the row
			if k > 0 {
				// A value the index in hand lacks was appended after it
				// was fetched: the next patch's.
				var ok bool
				if e, ok = ws.Idx[k].EntryOf(s.Cols[nd.AttrPos][row]); !ok {
					return
				}
			}
			hits = append(hits, reweigh{ent: int32(e), row: int32(row)})
		}
		for _, m := range tails[k] {
			// A row past the snapshot was appended after it was taken:
			// the next patch's.
			if m.Row < s.Rows {
				hit(m.Row)
			}
		}
		rescaled := sc.rescaled[:0]
		for _, c := range nd.Children {
			for _, v := range moved[c] {
				if !j.keyed(c) {
					for _, row := range up[c].Rows(v) {
						hit(row)
					}
				} else if ke, ok := ws.Idx[k].EntryOf(v); ok {
					// Every row of k's entry ke holds v: c moved its scale,
					// not its rows' own weights.
					rescaled = append(rescaled, int32(ke))
				}
			}
		}
		slices.SortFunc(hits, func(a, b reweigh) int {
			return cmp.Or(cmp.Compare(a.ent, b.ent), cmp.Compare(a.row, b.row))
		})
		hits = slices.Compact(hits)
		slices.Sort(rescaled)
		rescaled = slices.Compact(rescaled)
		sc.rescaled = rescaled
		if !j.weigh(k, ws, s, hits) {
			return nil, Patch{}, j.overflow()
		}

		// The root is one entry; elsewhere the index in hand may have
		// gained entries prev's tables lack, and read as empty.
		entries := 1
		if k > 0 {
			entries = ws.Idx[k].NumEntries()
		}
		var bytes int
		var ok bool
		ws.Nodes[k], p.Touched[k], p.Folded[k], bytes, ok = j.patchNode(k, ws, &prev.Nodes[k], hits, rescaled, entries, sc)
		if !ok {
			return nil, Patch{}, j.overflow()
		}
		p.Bytes += bytes
		if k == 0 { // the root has no parent to tell
			break
		}
		lo := len(sc.moved)
		for _, e := range p.Touched[k] {
			if ws.Nodes[k].Total(int(e)) != prev.Nodes[k].Total(int(e)) {
				sc.moved = append(sc.moved, ws.Idx[k].ValueAt(int(e)))
			}
		}
		moved[k] = sc.moved[lo:]
	}
	sc.hits = hits
	return ws, p, nil
}

// leafMoved appends to moved the values of leaf k whose degree in its
// index idx — the leaf's total — differs from that in its predecessor
// was: of the values the tail's rows hold, those the two indexes
// disagree on. Degrees compare by value, so idx may stand on a new base
// (a compaction renumbers entries and drops emptied ones). A row past
// the snapshot was appended after it was taken: the next patch's.
func (j *Join) leafMoved(k int, idx, was *relation.Index, s *relation.SnapshotData, tail []relation.Mutation, moved []relation.Value) []relation.Value {
	col, lo := s.Cols[j.nodes[k].AttrPos], len(moved)
	for _, m := range tail {
		if m.Row < s.Rows {
			moved = append(moved, col[m.Row])
		}
	}
	slices.Sort(moved[lo:])
	kept := slices.DeleteFunc(slices.Compact(moved[lo:]), func(v relation.Value) bool {
		return idx.Degree(v) == was.Degree(v)
	})
	return moved[:lo+len(kept)]
}

// patchScratch is what PatchWeights writes only to read back, kept
// across calls in its join (Join.scratch): the node in hand's hits and
// rescaled entries, the entries it touched, its rewritten small segments
// and their entries, the large segments it reached and the pieces of
// each, and every node's moved values. A
// patch takes its growth from here, so the storage it publishes is a
// fixed number of allocations per node (patchScratch.large).
type patchScratch struct {
	hits     []reweigh
	rescaled []int32
	touched  []int32
	fresh    segRun
	small    []int32
	reached  []reached
	pieces   []piece
	rows     []int32 // the merged pieces' rows
	cum      []int64 // and running sums, each counted from its piece's first row
	moved    []relation.Value
}

// segRun is a run of segments packed back to back: segment i is
// rows[off[i]:off[i+1]], cum[off[i]:off[i+1]] at scale scale[i].
type segRun struct {
	off   []int32
	rows  []int32
	cum   []int64
	scale []int64
}

// add ends the run's last segment, at scale s.
func (r *segRun) add(s int64) {
	r.off, r.scale = append(r.off, int32(len(r.rows))), append(r.scale, s)
}

// piece is the rows a merge wrote to the scratch's rows[lo:hi], in
// place of block b of group g of the predecessor's large segment, or of
// a small predecessor (g = b = -1). same is the block replaced when the
// piece's rows are its rows.
type piece struct {
	g, b, lo, hi int
	same         *Block
}

// reached is a segment the node in hand's patch leaves large: entry
// ent's at scale scale, merged over was (nil when it was small) into the
// pieces sc.pieces[lo:hi] — none when it is only rescaled.
type reached struct {
	ent    int32
	was    *LargeSegment
	lo, hi int
	scale  int64
}

// groups calls f with every group of a segment, in row order, while f
// returns true, and the pieces merged in place of its blocks: none for
// a group of its large predecessor was that no hit reached; for a small
// predecessor, a nil group and its one piece.
func (sc *patchScratch) groups(was *LargeSegment, pieces []piece, f func(grp *Group, pieces []piece) bool) {
	if was == nil {
		f(nil, pieces)
		return
	}
	for g, grp := range was.Groups {
		n := 0
		for n < len(pieces) && pieces[n].g == g {
			n++
		}
		if !f(grp, pieces[:n:n]) {
			return
		}
		pieces = pieces[n:]
	}
}

// blocks calls f with every stretch of a group and its pieces as groups
// hands them out, in row order: the blocks of grp no hit reached (merged
// false, blk the block), and the merged pieces (blk their same).
func (sc *patchScratch) blocks(grp *Group, pieces []piece, f func(rows []int32, cum []int64, blk *Block, merged bool)) {
	i := 0
	if grp != nil {
		for b, blk := range grp.Blocks {
			if i < len(pieces) && pieces[i].b == b {
				pc := pieces[i]
				f(sc.rows[pc.lo:pc.hi], sc.cum[pc.lo:pc.hi], pc.same, true)
				i++
				continue
			}
			f(blk.Rows, blk.Cum, blk, false)
		}
	}
	for _, pc := range pieces[i:] {
		f(sc.rows[pc.lo:pc.hi], sc.cum[pc.lo:pc.hi], pc.same, true)
	}
}

// patchNode returns node k's table with the segments holding the hit
// rows (weighed; sorted by entry, then row) rewritten over prev's and
// the rescaled entries (ascending) given their scale afresh, the
// entries it rewrote or rescaled, whether the patch counts as costing
// the whole node (Patch.Folded) and the bytes it wrote. Each hit segment
// is merged into scratch, reused across calls: a small one whole, a
// large one only in the blocks its hits fall in, a hit going to the last
// group, and in it to the last block, whose first row does not follow
// it. The segments of LargeRows rows or more stay there until the last
// is merged, and then become LargeSegments carved from one set of slabs
// (patchScratch.large) in a copy of prev.Large; a rescaled large segment
// becomes a header over its predecessor's directory and groups. The
// small ones extend prev's overlay (segOverlay.extend), or — once the
// overlay's entries and rows pass relation.FoldBudget of the flat
// arrays' — are folded with the untouched ones into fresh flat arrays; a
// rescaled one is copied at its new scale, and an entry turned large
// leaves them an empty segment. ok is false when a running sum or a
// scaled total passes math.MaxInt64.
func (j *Join) patchNode(k int, ws *Weights, prev *WeightTable, hits []reweigh, rescaled []int32, entries int, sc *patchScratch) (_ WeightTable, touched []int32, whole bool, bytes int, ok bool) {
	if len(hits)+len(rescaled) == 0 {
		return *prev, nil, false, 0, true
	}
	fresh := &sc.fresh
	fresh.off, fresh.rows, fresh.cum = append(fresh.off[:0], 0), fresh.rows[:0], fresh.cum[:0]
	fresh.scale = fresh.scale[:0]
	sc.rows, sc.cum, sc.pieces, sc.reached = sc.rows[:0], sc.cum[:0], sc.pieces[:0], sc.reached[:0]
	t, small, touched := *prev, sc.small[:0], sc.touched[:0]
	dropped, rewritten := 0, 0 // prev's large segments rewritten; the rows written
	ok = true
	for lo, hi, r := 0, 0, 0; hi < len(hits) || r < len(rescaled); lo = hi {
		var e int32 // the lower of the next hit's entry and the next rescaled one
		if r == len(rescaled) || hi < len(hits) && hits[hi].ent < rescaled[r] {
			e = hits[hi].ent
		} else {
			e, r = rescaled[r], r+1
		}
		for hi < len(hits) && hits[hi].ent == e {
			hi++
		}
		s, sok := j.scale(k, int(e), ws)
		wasRows, wasCum, wasScale, was := prev.Segment(int(e))
		if lo == hi { // rescaled only: the rows and their own sums stay
			var own int64
			switch {
			case was != nil:
				own = was.Sums[len(was.Sums)-1]
			case len(wasCum) > 0:
				own = wasCum[len(wasCum)-1]
			}
			if own == 0 || sok && s == wasScale {
				continue
			}
			ok = scaled(s, sok, own) && ok
			touched = append(touched, e)
			if was != nil {
				dropped++
				sc.reached = append(sc.reached, reached{ent: e, was: was, lo: len(sc.pieces), hi: len(sc.pieces), scale: s})
				continue
			}
			small, rewritten = append(small, e), rewritten+len(wasRows)
			fresh.rows, fresh.cum = append(fresh.rows, wasRows...), append(fresh.cum, wasCum...)
			fresh.add(s)
			continue
		}
		touched = append(touched, e)
		rlo, plo := len(sc.rows), len(sc.pieces)
		if was == nil {
			ok = sc.merge(nil, -1, -1, wasRows, wasCum, hits[lo:hi]) && ok
		} else {
			dropped++
			for g, h := 0, lo; h < hi; g++ {
				end := h
				for end < hi && (g+1 == len(was.Groups) || hits[end].row < was.Groups[g+1].Blocks[0].Rows[0]) {
					end++
				}
				for b, grp := 0, was.Groups[g]; h < end; b++ {
					bend := h
					for bend < end && (b+1 == len(grp.Blocks) || hits[bend].row < grp.Blocks[b+1].Rows[0]) {
						bend++
					}
					if bend > h {
						blk := grp.Blocks[b]
						ok = sc.merge(blk, g, b, blk.Rows, blk.Cum, hits[h:bend]) && ok
					}
					h = bend
				}
			}
		}
		merged := 0
		for _, pc := range sc.pieces[plo:] {
			merged += pc.hi - pc.lo
		}
		// n counts the rows, group by group, until it reaches LargeRows:
		// whether the segment stays large, and if not, its rows.
		n := merged
		sc.groups(was, sc.pieces[plo:], func(grp *Group, pieces []piece) bool {
			sc.blocks(grp, pieces, func(rows []int32, _ []int64, _ *Block, m bool) {
				if !m {
					n += len(rows)
				}
			})
			return n < LargeRows
		})
		if n >= LargeRows {
			// Its rows weigh more than 0, so its own total does; sum
			// checks the scaled total.
			ok = sok && ok
			sc.reached = append(sc.reached, reached{ent: e, was: was, lo: plo, hi: len(sc.pieces), scale: s})
			rewritten += merged
		} else {
			rewritten += n
			own, fits := sc.flatten(was, sc.pieces[plo:], fresh)
			ok = fits && scaled(s, sok, own) && ok
			sc.rows, sc.cum, sc.pieces = sc.rows[:rlo], sc.cum[:rlo], sc.pieces[:plo]
		}
		// Once e's segment is large, or a large one emptied, the small
		// layers need only stop answering for e.
		if (n >= LargeRows || (n == 0 && was != nil)) && (was != nil || len(wasRows) == 0) {
			continue
		}
		small = append(small, e)
		fresh.add(s)
	}
	sc.small, sc.touched = small, touched
	if !ok {
		return WeightTable{}, nil, false, 0, false
	}
	if len(touched) == 0 { // every rescale left its segment's total as it was
		return *prev, nil, false, 0, true
	}
	touched = slices.Clone(touched)
	if len(touched) == entries {
		whole = len(touched)+rewritten > relation.FoldBudget(len(prev.Off)+prev.size())
	}
	if len(sc.reached)+dropped > 0 {
		large, wrote, fits := sc.large()
		if !fits {
			return WeightTable{}, nil, false, 0, false
		}
		dir := make([]*LargeSegment, 0, len(prev.Large)-dropped+len(large))
		i := 0
		for _, seg := range prev.Large {
			for ; i < len(large) && large[i].Ent < seg.Ent; i++ {
				dir = append(dir, &large[i])
			}
			if _, hit := slices.BinarySearch(touched, seg.Ent); !hit {
				dir = append(dir, seg)
			}
		}
		for ; i < len(large); i++ {
			dir = append(dir, &large[i])
		}
		t.Large = dir
		bytes += wrote + 8*len(t.Large)
	}
	if len(small) == 0 {
		return t, touched, whole, bytes, true
	}
	old, keyed := cmp.Or(prev.ov, &segOverlay{}), prev.Scale != nil
	ents, rows := old.measure(small, fresh)
	if ents+rows <= relation.FoldBudget(len(prev.Off)+len(prev.Rows)) {
		var wrote int
		t.ov, wrote = old.extend(small, fresh, ents, rows, keyed)
		return t, touched, whole, bytes + wrote, true
	}
	// merged visits, ascending, every entry of the old overlay and the
	// fresh segments with the segment that stands for it: the fresh one
	// where both have it.
	live := old.liveRecs()
	merged := func(visit func(e int32, rows []int32, cum []int64, scale int64)) {
		for i, f := 0, 0; i < len(live) || f < len(small); {
			if f == len(small) || (i < len(live) && old.recs[live[i]].ent < small[f]) {
				rows, cum, scale := old.record(live[i])
				visit(old.recs[live[i]].ent, rows, cum, scale)
				i++
				continue
			}
			if i < len(live) && old.recs[live[i]].ent == small[f] {
				i++
			}
			visit(small[f], fresh.rows[fresh.off[f]:fresh.off[f+1]], fresh.cum[fresh.off[f]:fresh.off[f+1]], fresh.scale[f])
			f++
		}
	}
	replaced := 0
	merged(func(e int32, _ []int32, _ []int64, _ int64) {
		seg, _, _ := prev.flat(int(e))
		replaced += len(seg)
	})
	t.Off, t.ov = make([]int32, 1, entries+1), nil
	t.Rows = make([]int32, 0, len(prev.Rows)-replaced+rows)
	t.Cum = make([]int64, 0, len(prev.Rows)-replaced+rows)
	if keyed {
		t.Scale = make([]int64, 0, entries)
	}
	put := func(rows []int32, cum []int64, scale int64) {
		t.Rows, t.Cum = append(t.Rows, rows...), append(t.Cum, cum...)
		if keyed {
			t.Scale = append(t.Scale, scale)
		}
		t.end()
	}
	next := 0 // the flat entry to write
	flat := func(upTo int) {
		for ; next < upTo; next++ {
			put(prev.flat(next))
		}
	}
	merged(func(e int32, seg []int32, cum []int64, scale int64) {
		flat(int(e))
		put(seg, cum, scale)
		next++
	})
	flat(entries)
	return t, touched, true, bytes + 4*len(t.Off) + 12*len(t.Rows) + 8*len(t.Scale), true
}

// merge appends one piece to sc, in place of block b of group g: an old
// run of a segment — block was, or a small segment whole — merged with
// the hits that fall in it, a hit row at its weight afresh, any other row
// at the weight the run records; a row that weighs 0 is left out. The result is
// the flat build's run: same rows, same order, same weights. It is false
// when the piece's running sum passes math.MaxInt64.
func (sc *patchScratch) merge(was *Block, g, b int, rows []int32, cum []int64, hits []reweigh) bool {
	lo, sum, ok := len(sc.rows), int64(0), true
	for i, h := 0, 0; i < len(rows) || h < len(hits); {
		var r int32
		var w int64
		if h < len(hits) && (i == len(rows) || hits[h].row <= rows[i]) {
			if r, w = hits[h].row, hits[h].w; i < len(rows) && rows[i] == r {
				i++
			}
			h++
		} else {
			if r, w = rows[i], cum[i]; i > 0 {
				w -= cum[i-1]
			}
			i++
		}
		if w > 0 {
			sum += w
			ok = ok && sum > 0
			sc.rows, sc.cum = append(sc.rows, r), append(sc.cum, sum)
		}
	}
	pc := piece{g: g, b: b, lo: lo, hi: len(sc.rows)}
	if was != nil && slices.Equal(was.Rows, sc.rows[lo:]) {
		pc.same = was
	}
	sc.pieces = append(sc.pieces, pc)
	return ok
}

// flatten appends a segment — its large predecessor was's blocks and its
// merged pieces — to fresh as one small segment, and returns its total.
// ok is false when its running sum passes math.MaxInt64.
func (sc *patchScratch) flatten(was *LargeSegment, pieces []piece, fresh *segRun) (base int64, ok bool) {
	ok = true
	sc.groups(was, pieces, func(grp *Group, pieces []piece) bool {
		sc.blocks(grp, pieces, func(rows []int32, cum []int64, _ *Block, _ bool) {
			for _, c := range cum {
				fresh.cum = append(fresh.cum, base+c)
			}
			fresh.rows = append(fresh.rows, rows...)
			if len(cum) > 0 {
				base += cum[len(cum)-1]
				ok = ok && base > 0
			}
		})
		return true
	})
	return base, ok
}

// large returns the reached segments as LargeSegments, in entry order,
// and the bytes they wrote, carved the way the cold build's packer
// carves a node: a first walk counts what every segment writes, then one
// slab each holds the segment, group and block headers, the directories'
// pointers, moved rows and running sums (the directories' too). Each
// keeps every group of its predecessor no hit reached by pointer, and
// writes the reached ones afresh: every block of theirs no hit reached
// kept by pointer, every merged piece carved into blocks of its own —
// split when it grew past 2·BlockRows, none when it emptied; a piece with
// its old block's rows, one block, keeps those rows — and the run of
// blocks grouped again — split when it grew past 2·GroupBlocks, none when
// it emptied. A rescaled segment shares its predecessor's directory and
// groups whole. ok is false when a total passes MaxInt64.
func (sc *patchScratch) large() (_ []LargeSegment, bytes int, ok bool) {
	carved, groups, bdir, gdir, sums, ids := 0, 0, 0, 0, 0, 0
	for _, r := range sc.reached {
		if r.lo == r.hi {
			continue
		}
		sc.groups(r.was, sc.pieces[r.lo:r.hi], func(grp *Group, pieces []piece) bool {
			if len(pieces) == 0 {
				gdir++
				return true
			}
			nb := 0
			sc.blocks(grp, pieces, func(rows []int32, _ []int64, same *Block, merged bool) {
				if !merged {
					nb++
					return
				}
				n := parts(len(rows), BlockRows)
				nb, carved, sums = nb+n, carved+n, sums+len(rows)
				if same == nil {
					ids += len(rows)
				}
			})
			ng := parts(nb, GroupBlocks)
			groups, gdir, bdir = groups+ng, gdir+ng, bdir+nb
			return true
		})
	}
	segs, cum, rows := make([]LargeSegment, len(sc.reached)), make([]int64, bdir+gdir+sums), make([]int32, ids)
	s := slabs{
		blocks: make([]Block, carved), groups: make([]Group, groups),
		bdir: make([]*Block, bdir), gdir: make([]*Group, gdir), sums: cum[:bdir+gdir],
	}
	cum = cum[bdir+gdir:]
	ok = true
	for i, r := range sc.reached {
		seg := &segs[i]
		if seg.Ent, seg.Scale = r.ent, r.scale; r.lo == r.hi {
			seg.Sums, seg.Groups = r.was.Sums, r.was.Groups
			continue
		}
		seg.Groups = s.gdir[:0]
		sc.groups(r.was, sc.pieces[r.lo:r.hi], func(grp *Group, pieces []piece) bool {
			if len(pieces) == 0 {
				seg.Groups = append(seg.Groups, grp)
				return true
			}
			blocks := s.bdir[:0]
			sc.blocks(grp, pieces, func(rs []int32, c []int64, blk *Block, merged bool) {
				if !merged {
					blocks = append(blocks, blk)
					return
				}
				n := copy(cum, c)
				c, cum = cum[:n:n], cum[n:]
				if blk != nil {
					rs = blk.Rows
				} else {
					copy(rows, rs)
					rs, rows = rows[:n:n], rows[n:]
				}
				blocks = s.carve(blocks, rs, c)
			})
			ok = s.group(seg, blocks) && ok
			return true
		})
		ok = s.seal(seg) && ok
	}
	bytes = blockHeader*carved + groupHeader*groups + segHeader*len(segs) + 16*(bdir+gdir) + 8*sums + 4*ids
	return segs, bytes, ok
}

// weigh weighs every hit row afresh: 0 when it is not among its entry's
// rows in the index in hand (the root's one entry holds every row of the
// snapshot), else by the EW recurrence. It is false when a weight passes
// math.MaxInt64.
func (j *Join) weigh(k int, ws *Weights, s *relation.SnapshotData, hits []reweigh) bool {
	var rows []int
	for i := range hits {
		h := &hits[i]
		if k > 0 {
			if i == 0 || h.ent != hits[i-1].ent {
				rows = ws.Idx[k].Rows(ws.Idx[k].ValueAt(int(h.ent)))
			}
			if _, in := slices.BinarySearch(rows, int(h.row)); !in {
				h.w = 0
				continue
			}
		}
		var fits bool
		if h.w, fits = j.rowWeight(k, int(h.row), ws, s); !fits {
			return false
		}
	}
	return true
}

// rowWeight is the EW recurrence for one row of node k, its own weight:
// 0 for a tombstoned row, else the product of its children's totals for
// the values it holds, but for the keyed children's (its segment's
// scale). ok is false when the product passes math.MaxInt64.
func (j *Join) rowWeight(k, r int, ws *Weights, s *relation.SnapshotData) (w int64, ok bool) {
	if !s.IsLive(r) {
		return 0, true
	}
	w = 1
	for _, c := range j.nodes[k].Children {
		if j.keyed(c) {
			continue
		}
		if w, ok = mulWeight(w, ws.Total(c, s.Cols[j.nodes[c].ParentAttrPos][r])); !ok || w == 0 {
			return w, ok
		}
	}
	return w, true
}
