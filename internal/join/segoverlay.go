package join

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// segOverlay holds the recomputed segments of a patched table: for each
// overlaid entry, a segment that replaces the base's (entries the index
// gained since the base was packed have no base segment at all, and are
// always here). Its storage is shared with the overlays it succeeds: a
// patch appends each segment it rewrote past the predecessor's ends of
// rows and cum, with a record of its entry and bounds past the end of
// recs, and files the record in the slot array the two share, with an
// atomic store; what it keeps, it does not touch. So an overlay reads
// nothing past its own len(recs) — a slot naming a later record is
// occupied but matches nothing — and an entry's segment is its newest
// record within that bound. An overlay may have one successor that
// extends it in place, the one that sets extended; any other, and one
// that needs more room than the storage has, copies the live segments
// into storage of its own.
type segOverlay struct {
	slots    []atomic.Int32 // open addressing on entry ids: record + 1, 0 = empty
	recs     []segRec       // one per segment written, oldest first
	rows     []int32
	cum      []int64
	ents     int // overlaid entries
	live     int // rows of their segments
	extended atomic.Bool
}

// segRec locates one segment: entry ent's rows are rows[lo:hi].
type segRec struct{ ent, lo, hi int32 }

// entSlot is entry e's home slot: a multiplicative hash with its high
// half folded down, so that strided entry ids still spread.
func entSlot(e, mask int) int {
	h := uint64(e) * 0x9E3779B97F4A7C15
	return int(h^h>>32) & mask
}

// find returns the record of entry e's segment, or -1 when e is not
// overlaid. A later record of the same entry sits further along the
// probe chain, so the probe walks the chain to its end.
func (o *segOverlay) find(e int) int {
	r := -1
	if len(o.slots) == 0 {
		return r
	}
	mask := len(o.slots) - 1
	for j := entSlot(e, mask); ; j = (j + 1) & mask {
		s := int(o.slots[j].Load())
		if s == 0 {
			return r
		}
		if s-1 < len(o.recs) && o.recs[s-1].ent == int32(e) {
			r = s - 1
		}
	}
}

// segment is Segment for a table carrying overlay o: the overlaid
// segment when e has one, else the flat one.
func (o *segOverlay) segment(t *WeightTable, e int) ([]int32, []int64) {
	if r := o.find(e); r >= 0 {
		rc := o.recs[r]
		return o.rows[rc.lo:rc.hi], o.cum[rc.lo:rc.hi]
	}
	return t.flat(e)
}

// liveRecs returns the records of o's overlaid entries, by entry.
func (o *segOverlay) liveRecs() []segRec {
	var live []segRec
	for r, rc := range o.recs {
		if o.find(int(rc.ent)) == r {
			live = append(live, rc)
		}
	}
	slices.SortFunc(live, func(a, b segRec) int { return cmp.Compare(a.ent, b.ent) })
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
// (measure). When o grants its one in-place successor and its storage,
// records and slots have room, fresh's segments are appended past o's
// ends and every other segment stays where it is; otherwise o's live
// segments that touched does not name, then fresh's, are copied into new
// storage with room for as many again. It also returns the bytes of
// segments and records it wrote.
func (o *segOverlay) extend(touched []int32, fresh *segRun, ents, rows int) (*segOverlay, int) {
	n := &segOverlay{ents: ents, live: rows}
	fits := cap(o.recs)-len(o.recs) >= len(touched) && cap(o.rows)-len(o.rows) >= len(fresh.rows) &&
		(len(o.recs)+len(touched))*2 <= len(o.slots)
	shared := 0
	if fits && o.extended.CompareAndSwap(false, true) {
		n.slots, n.recs, n.rows, n.cum = o.slots, o.recs, o.rows, o.cum
		shared = len(o.rows) + len(o.recs)
	} else {
		n.reserve(ents, rows)
		for r, rc := range o.recs {
			if _, hit := slices.BinarySearch(touched, rc.ent); !hit && o.find(int(rc.ent)) == r {
				n.put(rc.ent, o.rows[rc.lo:rc.hi], o.cum[rc.lo:rc.hi])
			}
		}
	}
	for t, e := range touched {
		n.put(e, fresh.rows[fresh.off[t]:fresh.off[t+1]], fresh.cum[fresh.off[t]:fresh.off[t+1]])
	}
	return n, 12 * (len(n.rows) + len(n.recs) - shared)
}

// reserve gives n empty storage for twice ents segments of rows rows in
// all, and slots at most half full once the records reach that.
func (n *segOverlay) reserve(ents, rows int) {
	slots := 16
	for slots < 4*ents {
		slots <<= 1
	}
	n.slots = make([]atomic.Int32, slots)
	n.recs = make([]segRec, 0, 2*ents)
	n.rows, n.cum = make([]int32, 0, 2*rows), make([]int64, 0, 2*rows)
}

// put appends a segment for entry e to n's storage and files its record.
func (n *segOverlay) put(e int32, rows []int32, cum []int64) {
	lo := int32(len(n.rows))
	n.rows, n.cum = append(n.rows, rows...), append(n.cum, cum...)
	n.file(segRec{e, lo, int32(len(n.rows))})
}

// file appends record rc and stores it in its entry's probe chain.
func (n *segOverlay) file(rc segRec) {
	n.recs = append(n.recs, rc)
	mask := len(n.slots) - 1
	j := entSlot(int(rc.ent), mask)
	for n.slots[j].Load() != 0 {
		j = (j + 1) & mask
	}
	n.slots[j].Store(int32(len(n.recs)))
}

// overlayOf returns an overlay whose storage is fresh's own arrays,
// segment t standing for entry touched[t].
func overlayOf(touched []int32, fresh *segRun) *segOverlay {
	n := &segOverlay{ents: len(touched), live: len(fresh.rows)}
	n.reserve(len(touched), 0)
	n.rows, n.cum = fresh.rows, fresh.cum
	for t, e := range touched {
		n.file(segRec{e, fresh.off[t], fresh.off[t+1]})
	}
	return n
}
