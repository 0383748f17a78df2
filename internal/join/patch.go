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
	// Folded[k]: node k's overlay outgrew an eighth of its table and was
	// folded, with the untouched segments, into fresh flat arrays.
	Folded []bool
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
// whose Vers predate the mutation — is harmless.
func (j *Join) PatchWeights(prev *Weights) (*Weights, Patch) {
	rebuilt := func() (*Weights, Patch) { return j.ExactWeights(), Patch{Rebuilt: true} }
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

		// The root is one entry; elsewhere prev knows the entries its own
		// index had, and the index in hand may have gained some.
		entries, known := 1, 1
		if k > 0 {
			entries, known = ws.Idx[k].NumEntries(), prev.Idx[k].NumEntries()
		}
		ws.Nodes[k], p.Touched[k], p.Folded[k] = j.patchNode(k, ws, s, &prev.Nodes[k], hits, entries, known, &sc.fresh)
		for _, e := range p.Touched[k] {
			var was int64
			if int(e) < known {
				was = prev.Nodes[k].Total(int(e))
			}
			if ws.Nodes[k].Total(int(e)) != was {
				moved[k] = append(moved[k], e)
			}
		}
	}
	sc.hits = hits
	return ws, p
}

// patchScratch is what PatchWeights writes only to read back — the node
// in hand's hits, its rewritten segments — pooled across calls.
type patchScratch struct {
	hits  []reweigh
	fresh segRun
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
// rows (sorted by entry, then row) rewritten over prev's, the entries
// it rewrote, and whether it folded: the rewritten segments extend
// prev's overlay (segOverlay.extend), or — once the overlay's entries
// and rows pass relation.FoldBudget of the flat table's — are folded with the untouched segments into fresh
// flat arrays. Rewritten segments are the result when they are every
// entry, and are written straight into it; otherwise they go to scratch,
// reused across calls, and are copied once into the overlay's storage or
// the fold.
func (j *Join) patchNode(k int, ws *Weights, s *relation.SnapshotData, prev *WeightTable, hits []reweigh, entries, known int, scratch *segRun) (WeightTable, []int32, bool) {
	if len(hits) == 0 {
		return *prev, nil, false
	}
	// was returns the segment prev holds for an entry it knows.
	was := func(e int32) (rows []int32, cum []int64) {
		if int(e) < known {
			rows, cum = prev.Segment(int(e))
		}
		return rows, cum
	}
	// Sized by what the segments held before plus a row per hit: a
	// segment cannot gain a row that is not named.
	size := len(hits)
	var touched []int32
	for i, h := range hits {
		if i == 0 || h.ent != hits[i-1].ent {
			touched = append(touched, h.ent)
			rows, _ := was(h.ent)
			size += len(rows)
		}
	}
	fresh := scratch
	if len(touched) == entries {
		fresh = &segRun{}
	}
	fresh.off = append(slices.Grow(fresh.off[:0], len(touched)+1), 0)
	fresh.rows, fresh.cum = slices.Grow(fresh.rows[:0], size), slices.Grow(fresh.cum[:0], size)
	for lo, hi := 0, 0; lo < len(hits); lo = hi {
		for hi < len(hits) && hits[hi].ent == hits[lo].ent {
			hi++
		}
		rows, cum := was(hits[lo].ent)
		j.appendSegment(k, ws, s, rows, cum, hits[lo:hi], fresh)
		fresh.off = append(fresh.off, int32(len(fresh.rows)))
	}
	old := cmp.Or(prev.ov, &segOverlay{})
	ents, rows := old.measure(touched, fresh)
	if ents+rows <= relation.FoldBudget(len(prev.Off)+len(prev.Rows)) {
		var ov *segOverlay
		if fresh == scratch {
			ov = old.extend(touched, fresh, ents, rows)
		} else { // every entry was rewritten: the fresh segments are the overlay
			ov = overlayOf(touched, fresh)
		}
		return WeightTable{Off: prev.Off, Rows: prev.Rows, Cum: prev.Cum, ov: ov}, touched, false
	}
	if fresh != scratch {
		// Every entry was rewritten: the fresh segments are the table.
		return WeightTable{Off: fresh.off, Rows: fresh.rows, Cum: fresh.cum}, touched, true
	}
	// merged visits, ascending, every entry of the old overlay and the
	// fresh segments with the segment that stands for it: the fresh one
	// where both have it.
	live := old.liveRecs()
	merged := func(visit func(e int32, rows []int32, cum []int64)) {
		for i, t := 0, 0; i < len(live) || t < len(touched); {
			if t == len(touched) || (i < len(live) && live[i].ent < touched[t]) {
				rc := live[i]
				visit(rc.ent, old.rows[rc.lo:rc.hi], old.cum[rc.lo:rc.hi])
				i++
				continue
			}
			if i < len(live) && live[i].ent == touched[t] {
				i++
			}
			visit(touched[t], fresh.rows[fresh.off[t]:fresh.off[t+1]], fresh.cum[fresh.off[t]:fresh.off[t+1]])
			t++
		}
	}
	replaced := 0
	merged(func(e int32, _ []int32, _ []int64) {
		if int(e)+1 < len(prev.Off) {
			replaced += int(prev.Off[e+1] - prev.Off[e])
		}
	})
	t := WeightTable{
		Off:  make([]int32, 1, entries+1),
		Rows: make([]int32, 0, len(prev.Rows)-replaced+rows),
		Cum:  make([]int64, 0, len(prev.Rows)-replaced+rows),
	}
	next := 0 // the flat entry to write
	flat := func(upTo int) {
		for ; next < upTo; next++ {
			t.Rows = append(t.Rows, prev.Rows[prev.Off[next]:prev.Off[next+1]]...)
			t.Cum = append(t.Cum, prev.Cum[prev.Off[next]:prev.Off[next+1]]...)
			t.end()
		}
	}
	merged(func(e int32, seg []int32, cum []int64) {
		flat(int(e))
		t.Rows = append(t.Rows, seg...)
		t.Cum = append(t.Cum, cum...)
		t.end()
		next++
	})
	flat(entries)
	return t, touched, true
}

// appendSegment rewrites the segment of the entry hits name (they share
// it; rows ascending) and appends it to ov: the entry's live rows in
// index order, a hit row weighed from the children's finished tables,
// any other row at the weight the old segment (wasRows, wasCum) records
// for it — zero when absent: nothing changed for a row that is not hit.
// The result is the flat build's segment: same rows, same order, same
// running sums.
func (j *Join) appendSegment(k int, ws *Weights, s *relation.SnapshotData, wasRows []int32, wasCum []int64, hits []reweigh, ov *segRun) {
	var cum int64
	p, h := 0, 0 // cursors into the old segment and the hits
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
			w = j.rowWeight(k, r, ws, s)
		case p < len(wasRows) && int(wasRows[p]) == r:
			if w = wasCum[p]; p > 0 {
				w -= wasCum[p-1]
			}
		}
		if w > 0 {
			cum += w
			ov.rows = append(ov.rows, int32(r))
			ov.cum = append(ov.cum, cum)
		}
	}
	if k == 0 {
		for r := 0; r < s.Rows; r++ {
			add(r)
		}
		return
	}
	ix := ws.Idx[k]
	for _, r := range ix.Rows(ix.ValueAt(int(hits[0].ent))) {
		add(r)
	}
}

// rowWeight is the EW recurrence for one row of node k: 0 for a
// tombstoned row, else the product of its children's totals for the
// values it holds.
func (j *Join) rowWeight(k, r int, ws *Weights, s *relation.SnapshotData) int64 {
	if !s.IsLive(r) {
		return 0
	}
	w := int64(1)
	for _, c := range j.nodes[k].Children {
		e, ok := ws.Idx[c].EntryOf(s.Cols[j.nodes[c].ParentAttrPos][r])
		if !ok {
			return 0
		}
		if w *= ws.Nodes[c].Total(e); w == 0 {
			return 0
		}
	}
	return w
}
