package join

import (
	"cmp"
	"slices"
	"sync"

	"sampleunion/internal/relation"
)

// Patch reports how PatchWeights derived a Weights generation from its
// predecessor.
type Patch struct {
	// Rebuilt: the join was rebuilt flat by ExactWeights — there was no
	// predecessor, an index had been compacted onto a new base (which
	// renumbers the entries the tables are aligned to), or a relation no
	// longer retained the mutation-log tail since the predecessor.
	Rebuilt bool
	// Touched[k] lists, ascending, the entries of node k whose segments
	// were rewritten; every other segment is the predecessor's. Nil
	// when Rebuilt.
	Touched [][]int32
	// Folded[k]: the patch cost node k whole — its small segments'
	// overlay outgrew an eighth of their flat arrays and was folded, with
	// the untouched ones, into fresh flat arrays, or it rewrote every
	// entry's segment and those passed an eighth of the node.
	Folded []bool
	// Bytes is the weight-table storage the patch wrote: running sums,
	// row lists, offsets, overlay records, the overlay slot tables it
	// allocated (an overlay extended in place allocates none) and
	// large-segment directories; the whole tables when Rebuilt.
	Bytes int
}

// reweigh names one row whose weight may have moved, and the entry of
// its node whose segment it sits in.
type reweigh struct{ ent, row int32 }

// PatchWeights derives the join's current Weights from prev, a
// generation built over older versions of the same relations, in time
// bounded by the mutations' neighbourhood instead of the join. Each
// node's log tail since prev names the rows that came or went; bottom-up,
// the segments holding them are rewritten — a named row weighed afresh,
// every other row keeping the weight prev recorded — and an entry whose
// total moved names, through the index on the parent's copy of the join
// attribute, the parent rows to weigh afresh in turn. Everything else is
// shared with prev. The result's Segment, Total and Count equal those of
// a flat ExactWeights over the same indexes, which is also what the
// patch falls back to when it cannot follow the delta (see
// Patch.Rebuilt).
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
			t := &ws.Nodes[k]
			p.Bytes += 4*len(t.Off) + 12*t.rows() + 8*len(t.Large)
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
	// way from a moved entry of k to the parent rows it reweighs.
	up := make([]*relation.Index, n)
	for k := 1; k < n; k++ {
		nd := &j.nodes[k]
		ws.Idx[k] = nd.Rel.Index(nd.AttrPos)
		if !ws.Idx[k].SameBase(prev.Idx[k]) {
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
	// moved[k]: the touched entries of node k whose total changed, which
	// is all a parent's weights can see of them.
	moved := make([][]int32, n)
	sc := scratchPool.Get().(*patchScratch)
	defer scratchPool.Put(sc)
	hits := sc.hits
	for k := n - 1; k >= 0; k-- {
		nd, s := &j.nodes[k], &snaps[k]
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
			hits = append(hits, reweigh{int32(e), int32(row)})
		}
		for _, m := range tails[k] {
			// A row past the snapshot was appended after it was taken:
			// the next patch's.
			if m.Row < s.Rows {
				hit(m.Row)
			}
		}
		for _, c := range nd.Children {
			for _, e := range moved[c] {
				for _, row := range up[c].Rows(ws.Idx[c].ValueAt(int(e))) {
					hit(row)
				}
			}
		}
		slices.SortFunc(hits, func(a, b reweigh) int {
			return cmp.Or(cmp.Compare(a.ent, b.ent), cmp.Compare(a.row, b.row))
		})
		hits = slices.Compact(hits)

		// The root is one entry; elsewhere the index in hand may have
		// gained entries prev's tables lack, and read as empty.
		entries := 1
		if k > 0 {
			entries = ws.Idx[k].NumEntries()
		}
		var bytes int
		var ok bool
		ws.Nodes[k], p.Touched[k], p.Folded[k], bytes, ok = j.patchNode(k, ws, s, &prev.Nodes[k], hits, entries, sc)
		if !ok {
			return nil, Patch{}, j.overflow()
		}
		p.Bytes += bytes
		for _, e := range p.Touched[k] {
			if ws.Nodes[k].Total(int(e)) != prev.Nodes[k].Total(int(e)) {
				moved[k] = append(moved[k], e)
			}
		}
	}
	sc.hits = hits
	return ws, p, nil
}

// patchScratch is what PatchWeights writes only to read back — the node
// in hand's hits, its rewritten segments and the entries of the small
// ones — pooled across calls.
type patchScratch struct {
	hits  []reweigh
	fresh segRun
	small []int32
}

// segRun is a run of segments packed back to back: segment i is
// rows[off[i]:off[i+1]], cum[off[i]:off[i+1]].
type segRun struct {
	off  []int32
	rows []int32
	cum  []int64
}

var scratchPool = sync.Pool{New: func() any { return new(patchScratch) }}

// patchNode returns node k's table with the segments holding the hit
// rows (sorted by entry, then row) rewritten over prev's, the entries it
// rewrote, whether that cost the whole node (Patch.Folded) and the bytes
// it wrote. Each segment is rewritten into scratch, reused across calls.
// A large one is copied into a LargeSegment — keeping its predecessor's
// row list if the rows did not move — beside a copy of prev.Large. The
// small ones extend prev's overlay (segOverlay.extend), or — once the
// overlay's entries and rows pass relation.FoldBudget of the flat
// arrays' — are folded with the untouched ones into fresh flat arrays;
// an entry turned large leaves them an empty segment. ok is false when a
// rewritten weight passes math.MaxInt64.
func (j *Join) patchNode(k int, ws *Weights, s *relation.SnapshotData, prev *WeightTable, hits []reweigh, entries int, sc *patchScratch) (_ WeightTable, _ []int32, _ bool, _ int, ok bool) {
	if len(hits) == 0 {
		return *prev, nil, false, 0, true
	}
	// Sized by what the segments held before plus a row per hit: a
	// segment cannot gain a row that is not named.
	size := len(hits)
	var touched []int32
	for i, h := range hits {
		if i == 0 || h.ent != hits[i-1].ent {
			touched = append(touched, h.ent)
			rows, _ := prev.Segment(int(h.ent))
			size += len(rows)
		}
	}
	fresh := &sc.fresh
	if entries == 1 { // the root: its one segment is written straight into the result
		fresh = &segRun{}
	}
	fresh.off = append(slices.Grow(fresh.off[:0], len(touched)+1), 0)
	fresh.rows, fresh.cum = slices.Grow(fresh.rows[:0], size), slices.Grow(fresh.cum[:0], size)
	for lo, hi := 0, 0; lo < len(hits); lo = hi {
		for hi < len(hits) && hits[hi].ent == hits[lo].ent {
			hi++
		}
		rows, cum := prev.Segment(int(hits[lo].ent))
		if !j.appendSegment(k, ws, s, rows, cum, hits[lo:hi], fresh) {
			return WeightTable{}, nil, false, 0, false
		}
		fresh.off = append(fresh.off, int32(len(fresh.rows)))
	}
	whole := len(touched) == entries && len(touched)+len(fresh.rows) > relation.FoldBudget(len(prev.Off)+prev.rows())

	// Large segments go out; the small ones move to the front of fresh.
	t, small, large := *prev, sc.small[:0], []*LargeSegment(nil)
	n, dropped, bytes := 0, 0, 0
	for i, lo := 0, int32(0); i < len(touched); i++ {
		e, hi := touched[i], fresh.off[i+1]
		rows, cum := fresh.rows[lo:hi], fresh.cum[lo:hi]
		lo = hi
		wasRows, _, was := prev.SegmentOf(int(e))
		if was != nil {
			dropped++
		}
		if len(rows) >= LargeRows {
			seg := &LargeSegment{Ent: e, Rows: slices.Clip(rows), Cum: slices.Clip(cum)}
			if fresh == &sc.fresh {
				seg.Cum = slices.Clone(cum)
			}
			if was != nil && slices.Equal(was.Rows, rows) {
				seg.Rows = was.Rows
			} else {
				if fresh == &sc.fresh {
					seg.Rows = slices.Clone(rows)
				}
				bytes += 4 * len(rows)
			}
			bytes += 8 * len(cum)
			large = append(large, seg)
		}
		// Once e's segment is large, or a large one emptied, the small
		// layers need only stop answering for e.
		if len(rows) >= LargeRows || (len(rows) == 0 && was != nil) {
			if was != nil || len(wasRows) == 0 {
				continue
			}
			rows, cum = nil, nil
		}
		copy(fresh.rows[n:], rows)
		copy(fresh.cum[n:], cum)
		n += len(rows)
		small = append(small, e)
		fresh.off[len(small)] = int32(n)
	}
	fresh.off, fresh.rows, fresh.cum = fresh.off[:len(small)+1], fresh.rows[:n], fresh.cum[:n]
	if fresh != &sc.fresh { // the root's own storage, where a large segment may sit past n
		fresh.rows, fresh.cum = slices.Clip(fresh.rows), slices.Clip(fresh.cum)
	}
	sc.small = small
	if len(large)+dropped > 0 {
		dir := make([]*LargeSegment, 0, len(prev.Large)-dropped+len(large))
		i := 0
		for _, seg := range prev.Large {
			for ; i < len(large) && large[i].Ent < seg.Ent; i++ {
				dir = append(dir, large[i])
			}
			if _, hit := slices.BinarySearch(touched, seg.Ent); !hit {
				dir = append(dir, seg)
			}
		}
		t.Large = append(dir, large[i:]...)
		bytes += 8 * len(t.Large)
	}
	if len(small) == 0 {
		return t, touched, whole, bytes, true
	}
	if len(small) == entries && fresh == &sc.fresh {
		// Every entry was rewritten: the fresh segments are the overlay
		// or the table, in storage of their own.
		fresh = &segRun{off: slices.Clone(fresh.off), rows: slices.Clone(fresh.rows), cum: slices.Clone(fresh.cum)}
	}
	old := cmp.Or(prev.ov, &segOverlay{})
	ents, rows := old.measure(small, fresh)
	if ents+rows <= relation.FoldBudget(len(prev.Off)+len(prev.Rows)) {
		var wrote int
		if fresh == &sc.fresh {
			t.ov, wrote = old.extend(small, fresh, ents, rows)
		} else {
			t.ov = overlayOf(small, fresh)
			wrote = 12*(len(fresh.rows)+len(small)) + int(t.ov.slots.Bytes())
		}
		return t, touched, whole, bytes + wrote, true
	}
	if fresh != &sc.fresh {
		t.Off, t.Rows, t.Cum, t.ov = fresh.off, fresh.rows, fresh.cum, nil
		return t, touched, true, bytes + 4*len(t.Off) + 12*len(t.Rows), true
	}
	// merged visits, ascending, every entry of the old overlay and the
	// fresh segments with the segment that stands for it: the fresh one
	// where both have it.
	live := old.liveRecs()
	merged := func(visit func(e int32, rows []int32, cum []int64)) {
		for i, f := 0, 0; i < len(live) || f < len(small); {
			if f == len(small) || (i < len(live) && live[i].ent < small[f]) {
				rc := live[i]
				visit(rc.ent, old.rows[rc.lo:rc.hi], old.cum[rc.lo:rc.hi])
				i++
				continue
			}
			if i < len(live) && live[i].ent == small[f] {
				i++
			}
			visit(small[f], fresh.rows[fresh.off[f]:fresh.off[f+1]], fresh.cum[fresh.off[f]:fresh.off[f+1]])
			f++
		}
	}
	replaced := 0
	merged(func(e int32, _ []int32, _ []int64) {
		seg, _ := prev.flat(int(e))
		replaced += len(seg)
	})
	t.Off, t.ov = make([]int32, 1, entries+1), nil
	t.Rows = make([]int32, 0, len(prev.Rows)-replaced+rows)
	t.Cum = make([]int64, 0, len(prev.Rows)-replaced+rows)
	next := 0 // the flat entry to write
	flat := func(upTo int) {
		for ; next < upTo; next++ {
			rows, cum := prev.flat(next)
			t.Rows, t.Cum = append(t.Rows, rows...), append(t.Cum, cum...)
			t.end()
		}
	}
	merged(func(e int32, seg []int32, cum []int64) {
		flat(int(e))
		t.Rows, t.Cum = append(t.Rows, seg...), append(t.Cum, cum...)
		t.end()
		next++
	})
	flat(entries)
	return t, touched, true, bytes + 4*len(t.Off) + 12*len(t.Rows), true
}

// appendSegment rewrites the segment of the entry hits name (they share
// it; rows ascending) and appends it to ov: the entry's live rows in
// index order, a hit row weighed from the children's finished tables,
// any other row at the weight the old segment (wasRows, wasCum) records
// for it — zero when absent: nothing changed for a row that is not hit.
// The result is the flat build's segment: same rows, same order, same
// running sums. It is false when a weight or sum passes math.MaxInt64.
func (j *Join) appendSegment(k int, ws *Weights, s *relation.SnapshotData, wasRows []int32, wasCum []int64, hits []reweigh, ov *segRun) bool {
	var cum int64
	p, h := 0, 0 // cursors into the old segment and the hits
	ok := true
	add := func(r int) {
		for h < len(hits) && int(hits[h].row) < r {
			h++ // a deleted row: named, and gone from the index
		}
		for p < len(wasRows) && int(wasRows[p]) < r {
			p++
		}
		var w int64
		switch {
		case h < len(hits) && int(hits[h].row) == r:
			var fits bool
			w, fits = j.rowWeight(k, r, ws, s)
			ok = ok && fits
		case p < len(wasRows) && int(wasRows[p]) == r:
			if w = wasCum[p]; p > 0 {
				w -= wasCum[p-1]
			}
		}
		if w > 0 {
			cum += w
			ok = ok && cum > 0
			ov.rows = append(ov.rows, int32(r))
			ov.cum = append(ov.cum, cum)
		}
	}
	if k == 0 {
		for r := 0; r < s.Rows; r++ {
			add(r)
		}
		return ok
	}
	ix := ws.Idx[k]
	for _, r := range ix.Rows(ix.ValueAt(int(hits[0].ent))) {
		add(r)
	}
	return ok
}

// rowWeight is the EW recurrence for one row of node k: 0 for a
// tombstoned row, else the product of its children's totals for the
// values it holds. ok is false when the product passes math.MaxInt64.
func (j *Join) rowWeight(k, r int, ws *Weights, s *relation.SnapshotData) (w int64, ok bool) {
	if !s.IsLive(r) {
		return 0, true
	}
	w = 1
	for _, c := range j.nodes[k].Children {
		e, found := ws.Idx[c].EntryOf(s.Cols[j.nodes[c].ParentAttrPos][r])
		if !found {
			return 0, true
		}
		if w, ok = mulWeight(w, ws.Nodes[c].Total(e)); !ok || w == 0 {
			return w, ok
		}
	}
	return w, true
}
