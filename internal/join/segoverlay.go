package join

import (
	"cmp"
	"slices"

	"sampleunion/internal/relation"
)

// segOverlay holds the recomputed segments of a patched table: for each
// overlaid entry, a segment that replaces the base's (entries the index
// gained since the base was packed have no base segment at all, and are
// always here). Its storage is shared with the overlays it succeeds: a
// patch appends each segment it rewrote past the predecessor's ends of
// rows and cum, with a record of its entry and bounds past the end of
// recs filed in the slot table the two share (relation.Slots). So an
// overlay reads nothing past its own len(recs), and an entry's segment is
// its newest record within that bound. At a node with keyed children
// scale[r] is record r's segment's scale; elsewhere scale is nil and
// every scale 1.
type segOverlay struct {
	slots *relation.Slots // record ids, filed by their entry's hash
	recs  []segRec        // one per segment written, oldest first
	scale []int64
	rows  []int32
	cum   []int64
	ents  int // overlaid entries
	live  int // rows of their segments
}

// segRec locates one segment: entry ent's rows are rows[lo:hi].
type segRec struct{ ent, lo, hi int32 }

// entHash fingerprints entry e: a multiplicative hash with its high half
// folded down, so that strided entry ids still spread.
func entHash(e int32) uint64 {
	h := uint64(e) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// find returns the record of entry e's segment, or -1 when e is not
// overlaid: the newest of e's records.
func (o *segOverlay) find(e int) int {
	r := -1
	for id := range o.slots.Probe(entHash(int32(e)), len(o.recs)) {
		if o.recs[id].ent == int32(e) {
			r = max(r, id)
		}
	}
	return r
}

// segment is Segment for a table carrying overlay o: the overlaid
// segment when e has one, else the flat one.
func (o *segOverlay) segment(t *WeightTable, e int) ([]int32, []int64, int64) {
	if r := o.find(e); r >= 0 {
		return o.record(r)
	}
	return t.flat(e)
}

// record returns record r's rows, running sums and scale.
func (o *segOverlay) record(r int) (rows []int32, cum []int64, scale int64) {
	rc, scale := o.recs[r], int64(1)
	if o.scale != nil {
		scale = o.scale[r]
	}
	return o.rows[rc.lo:rc.hi], o.cum[rc.lo:rc.hi], scale
}

// liveRecs returns the ids of the records of o's overlaid entries, by
// entry.
func (o *segOverlay) liveRecs() []int {
	var live []int
	for r, rc := range o.recs {
		if o.find(int(rc.ent)) == r {
			live = append(live, r)
		}
	}
	slices.SortFunc(live, func(a, b int) int { return cmp.Compare(o.recs[a].ent, o.recs[b].ent) })
	return live
}

// measure returns the entries and rows o's successor overlays once
// fresh's segment t stands for entry touched[t]: the quantities the fold
// rule reads.
func (o *segOverlay) measure(touched []int32, fresh *segRun) (ents, rows int) {
	ents, rows = o.ents, o.live
	for t, e := range touched {
		if r := o.find(int(e)); r >= 0 {
			rows -= int(o.recs[r].hi - o.recs[r].lo)
		} else {
			ents++
		}
		rows += int(fresh.off[t+1] - fresh.off[t])
	}
	return ents, rows
}

// extend returns o's successor, with fresh's segment t standing for
// entry touched[t] (ascending) and ents entries of rows rows in all
// (measure); keyed says the node has keyed children, so records keep
// scales. When o's storage has room and this is o's first successor
// (Slots.Successor), fresh's segments are appended past o's ends and
// every other segment stays where it is; otherwise o's live segments that
// touched does not name, then fresh's, are copied into new storage with
// room for as many again. It also returns the bytes of segments, records,
// scales and slot tables it wrote.
func (o *segOverlay) extend(touched []int32, fresh *segRun, ents, rows int, keyed bool) (*segOverlay, int) {
	n := &segOverlay{ents: ents, live: rows}
	inPlace, wrote := false, 0
	if cap(o.recs)-len(o.recs) >= len(touched) && cap(o.rows)-len(o.rows) >= len(fresh.rows) {
		n.slots, inPlace = o.slots.Successor()
	}
	if inPlace {
		n.recs, n.scale, n.rows, n.cum = o.recs, o.scale, o.rows, o.cum
		wrote = -12*(len(o.rows)+len(o.recs)) - 8*len(o.scale) // o wrote those
	} else {
		n.reserve(ents, rows, keyed)
		wrote = int(n.slots.Bytes())
		for r, rc := range o.recs {
			if _, hit := slices.BinarySearch(touched, rc.ent); !hit && o.find(int(rc.ent)) == r {
				rows, cum, scale := o.record(r)
				n.put(rc.ent, rows, cum, scale)
			}
		}
	}
	for t, e := range touched {
		n.put(e, fresh.rows[fresh.off[t]:fresh.off[t+1]], fresh.cum[fresh.off[t]:fresh.off[t+1]], fresh.scale[t])
	}
	return n, wrote + 12*(len(n.rows)+len(n.recs)) + 8*len(n.scale)
}

// reserve gives n empty storage for twice ents segments of rows rows in
// all, scales beside the records when keyed, and slots at most half full
// once the records reach that: find walks an entry's chain to its end.
func (n *segOverlay) reserve(ents, rows int, keyed bool) {
	n.slots = relation.NewSlots(2*ents, 2)
	n.recs = make([]segRec, 0, 2*ents)
	if keyed {
		n.scale = make([]int64, 0, 2*ents)
	}
	n.rows, n.cum = make([]int32, 0, 2*rows), make([]int64, 0, 2*rows)
}

// put appends a segment for entry e at scale s to n's storage and files
// its record.
func (n *segOverlay) put(e int32, rows []int32, cum []int64, s int64) {
	lo := int32(len(n.rows))
	n.rows, n.cum = append(n.rows, rows...), append(n.cum, cum...)
	n.recs = append(n.recs, segRec{e, lo, int32(len(n.rows))})
	if n.scale != nil {
		n.scale = append(n.scale, s)
	}
	n.slots.Put(entHash(e), len(n.recs)-1)
}
