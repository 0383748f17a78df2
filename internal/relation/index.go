package relation

import "slices"

// Index is a per-attribute hash index: an immutable CSR base (the row
// ids of every distinct value contiguous in one packed slice, addressed
// by a counting-sort offset table, with an open-addressed value table
// on top) plus an optional delta overlay that absorbs mutations without
// rebuilding the base. Probes consult the overlay first — a value
// untouched by any mutation costs exactly the pure-CSR probe — and every
// published Index answers the same forever, so concurrent readers need
// no lock. Relation.Index catches an index up to the current version by
// deriving the overlay's successor, which extends it in place, and
// replaying the mutation-log tail into it; when the overlay would grow
// past a fraction of the base, the catch-up compacts back to a pure CSR
// instead.
type Index struct {
	base    *csr
	ov      *overlay // nil = pure CSR
	maxDeg  int      // exact max live degree under the overlay
	version uint64   // relation version this index reflects
}

// csr is the immutable base layout.
type csr struct {
	slots   []int32 // open addressing: entry index + 1; 0 = empty
	keys    []Value // distinct values, first-appearance order
	starts  []int32 // entry e's rows at rows[starts[e]:starts[e+1]]
	rows    []int   // row ids grouped by value, ascending within a group
	maxDeg  int
	degrade uint64 // test-only hash degradation mask
}

// overlay holds the touched values: for each, the fully merged live row
// list. Catch-up derives a successor that extends it in place (see
// successor), so an overlay reads nothing past its own len(keys), the
// bound of its slot probes.
type overlay struct {
	slots   *Slots  // overlay entry ids, filed by their value's hash
	keys    []Value // touched values
	rows    []*hdrs // merged live rows per touched value (ascending), hdrChunk headers per chunk
	baseEnt []int32 // base entry of the value, or -1 when new
	extra   []int32 // overlay entries of values absent from base, in first-appearance order
	rank    []int32 // per overlay entry: its index in extra (-1 for base values); keeps EntryOf O(1)
	degrade uint64
}

// hdrChunk is how many row-list headers one copy-on-write chunk of an
// overlay holds.
const hdrChunk = 32

type hdrs [hdrChunk][]int

// rowsAt returns overlay entry e's live rows.
func (o *overlay) rowsAt(e int) []int { return o.rows[e/hdrChunk][e%hdrChunk] }

// hashValue fingerprints one attribute value for the slot tables.
func hashValue(v Value, degrade uint64) uint64 {
	h := mix(uint64(v) + keySeed0)
	if degrade != 0 {
		h &= degrade
	}
	return h
}

// FoldBudget is the one fold rule of live structures over n base
// entries: an eighth of them, floor 64. An index overlay compacts to a
// pure CSR once its touched values pass FoldBudget of the base's rows, a
// membership table rebuilds its base once the mutations since it pass
// FoldBudget of the relation's rows, and a weight table folds its overlay
// once the rewritten entries and rows pass FoldBudget of the flat table's.
func FoldBudget(n int) int { return max(64, n/8) }

// buildIndex constructs a pure-CSR index over attribute position a of
// the snapshot, skipping tombstoned rows. Pass 1 runs down the
// attribute's column vector, probing the value directory once a row and
// recording the row's entry; pass 2 scatters row ids from that record
// and probes nothing. The value directory grows with the distinct
// values, not the rows, and the key list is copied to its exact length.
func buildIndex(s *snapshot, a int, version uint64, degrade uint64) *Index {
	n := s.rows
	col := s.cols[a]
	b := &csr{degrade: degrade, slots: make([]int32, minSlots)}
	// Pass 1: discover distinct values and their degrees. counts is
	// indexed by entry id (first-appearance rank); ent holds each row's
	// entry, -1 for a dead row.
	counts := make([]int32, 0, 16)
	ent := make([]int32, n)
	for i := 0; i < n; i++ {
		if !s.isLive(i) {
			ent[i] = -1
			continue
		}
		v := col[i]
		mask := uint64(len(b.slots) - 1)
		for j := hashValue(v, degrade) & mask; ; j = (j + 1) & mask {
			sl := b.slots[j]
			if sl == 0 {
				ent[i] = int32(len(b.keys))
				b.slots[j] = int32(len(b.keys) + 1)
				b.keys = append(b.keys, v)
				counts = append(counts, 1)
				if len(b.keys)*2 > len(b.slots) {
					b.slots = valueSlots(b.keys, len(b.slots)*2, degrade)
				}
				break
			}
			if b.keys[sl-1] == v {
				ent[i] = sl - 1
				counts[sl-1]++
				break
			}
		}
	}
	b.keys = slices.Clone(b.keys)
	// Pass 2: prefix sums, then scatter row ids. Scanning rows in order
	// keeps each group ascending.
	b.starts = make([]int32, len(b.keys)+1)
	live := 0
	for e, c := range counts {
		b.starts[e+1] = b.starts[e] + c
		live += int(c)
		if int(c) > b.maxDeg {
			b.maxDeg = int(c)
		}
	}
	b.rows = make([]int, live)
	cursor := append([]int32(nil), b.starts[:len(b.keys)]...)
	for i, e := range ent {
		if e >= 0 {
			b.rows[cursor[e]] = i
			cursor[e]++
		}
	}
	return &Index{base: b, maxDeg: b.maxDeg, version: version}
}

// valueSlots returns an open-addressed directory of n slots (a power of
// two) over keys: entry e's slot holds e + 1, 0 marks an empty slot.
func valueSlots(keys []Value, n int, degrade uint64) []int32 {
	slots := make([]int32, n)
	mask := uint64(n - 1)
	for e, v := range keys {
		j := hashValue(v, degrade) & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = int32(e + 1)
	}
	return slots
}

func (b *csr) entryOf(v Value) (int, bool) {
	mask := uint64(len(b.slots) - 1)
	h := hashValue(v, b.degrade)
	for j := h & mask; ; j = (j + 1) & mask {
		s := b.slots[j]
		if s == 0 {
			return -1, false
		}
		if b.keys[s-1] == v {
			return int(s - 1), true
		}
	}
}

func (b *csr) rowsOf(v Value) []int {
	e, ok := b.entryOf(v)
	if !ok {
		return nil
	}
	return b.rows[b.starts[e]:b.starts[e+1]]
}

func (b *csr) degreeAt(e int) int { return int(b.starts[e+1] - b.starts[e]) }

// lookup returns the overlay entry of v, or -1.
func (o *overlay) lookup(v Value) int {
	for e := range o.slots.Probe(hashValue(v, o.degrade), len(o.keys)) {
		if o.keys[e] == v {
			return e
		}
	}
	return -1
}

// successor returns the overlay a catch-up writes into. The first one
// (Slots.Successor) extends o in place: it appends past o's ends of the
// arrays that only grow (keys, baseEnt, extra, rank, slots, and row lists
// but for deletes, which copy theirs), and copies per chunk the row-list
// headers of o's entries it rewrites (header). Any other copies all of
// that up to o's ends, since the first writes past them: the headers of
// later entries too, while a chunk still holds both.
func (o *overlay) successor() *overlay {
	if o == nil {
		return &overlay{slots: NewSlots(0, 3)}
	}
	s := *o
	s.rows = slices.Clone(o.rows)
	var inPlace bool
	if s.slots, inPlace = o.slots.Successor(); !inPlace {
		s.keys, s.baseEnt, s.extra, s.rank = slices.Clip(o.keys), slices.Clip(o.baseEnt), slices.Clip(o.extra), slices.Clip(o.rank)
		for c, chunk := range s.rows {
			cp := new(hdrs)
			for i := range min(hdrChunk, len(o.keys)-c*hdrChunk) {
				cp[i] = slices.Clip(chunk[i])
			}
			s.rows[c] = cp
		}
	}
	return &s
}

// header returns entry e's row-list header to write through: a chunk
// shared with pred, the overlay this one succeeds, is copied first when
// pred reads e.
func (o *overlay) header(e int, pred *overlay) *[]int {
	c := e / hdrChunk
	if c == len(o.rows) {
		o.rows = append(o.rows, new(hdrs))
	}
	if pred != nil && e < len(pred.keys) && o.rows[c] == pred.rows[c] {
		cp := *o.rows[c]
		o.rows[c] = &cp
	}
	return &o.rows[c][e%hdrChunk]
}

// ensure returns the overlay entry for v, creating it (initialized with
// the base's row list for v — necessarily all live, since any earlier
// deletion of a v-row would already have created the entry) when
// absent, in one allocation with room for the row a tail appends to it.
// pred is the overlay o succeeds.
func (o *overlay) ensure(v Value, base *csr, pred *overlay) int {
	if e := o.lookup(v); e >= 0 {
		return e
	}
	e := len(o.keys)
	o.slots.Put(hashValue(v, o.degrade), e)
	o.keys = append(o.keys, v)
	be, ok := base.entryOf(v)
	if ok {
		rows := base.rows[base.starts[be]:base.starts[be+1]]
		*o.header(e, pred) = append(make([]int, 0, len(rows)+1), rows...)
		o.baseEnt = append(o.baseEnt, int32(be))
		o.rank = append(o.rank, -1)
	} else {
		*o.header(e, pred) = nil
		o.baseEnt = append(o.baseEnt, -1)
		o.rank = append(o.rank, int32(len(o.extra)))
		o.extra = append(o.extra, int32(e))
	}
	return e
}

// applyTail returns a new Index reflecting the mutation-log tail on top
// of ix, or nil when the overlay would exceed its budget and the caller
// should rebuild a pure CSR instead.
func (ix *Index) applyTail(s *snapshot, a int, tail []Mutation, version uint64) *Index {
	budget := FoldBudget(len(ix.base.rows))
	existing := 0
	if ix.ov != nil {
		existing = len(ix.ov.keys)
	}
	if existing+len(tail) > budget {
		return nil
	}
	ov := ix.ov.successor()
	ov.degrade = ix.base.degrade
	col := s.cols[a]
	// Appends only raise degrees, so the new max is the old one or a
	// degree an append reached; a delete may lower the max, and then the
	// max is computed again.
	maxDeg, deleted := ix.maxDeg, false
	for _, m := range tail {
		e := ov.ensure(col[m.Row], ix.base, ix.ov) // a dead row keeps its values
		h := ov.header(e, ix.ov)
		switch m.Kind {
		case MutAppend:
			*h = append(*h, m.Row)
			maxDeg = max(maxDeg, len(*h))
		case MutDelete:
			// A delete shifts the list in place: never one ix still reads.
			if e < existing && sameStart(*h, ix.ov.rowsAt(e)) {
				*h = slices.Clone(*h)
			}
			*h = removeRow(*h, m.Row)
			deleted = true
		}
	}
	nx := &Index{base: ix.base, ov: ov, maxDeg: maxDeg, version: version}
	if deleted {
		nx.maxDeg = nx.computeMaxDeg()
	}
	return nx
}

// sameStart reports whether row lists a and b share their first element.
func sameStart(a, b []int) bool { return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] }

// removeRow deletes row from an ascending id list in place.
func removeRow(rows []int, row int) []int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if rows[mid] < row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rows) && rows[lo] == row {
		return append(rows[:lo], rows[lo+1:]...)
	}
	return rows
}

// computeMaxDeg recomputes the exact max degree under the overlay. The
// base is scanned only when every base value attaining the base max was
// touched and shrunk — otherwise the base max still stands.
func (ix *Index) computeMaxDeg() int {
	ov := ix.ov
	max := 0
	shrunkAttainer := false
	for e := range ov.keys {
		d := len(ov.rowsAt(e))
		if d > max {
			max = d
		}
		if be := ov.baseEnt[e]; be >= 0 && ix.base.degreeAt(int(be)) == ix.base.maxDeg && d < ix.base.maxDeg {
			shrunkAttainer = true
		}
	}
	if !shrunkAttainer {
		if ix.base.maxDeg > max {
			max = ix.base.maxDeg
		}
		return max
	}
	for e := range ix.base.keys {
		if ov.lookup(ix.base.keys[e]) >= 0 {
			continue
		}
		if d := ix.base.degreeAt(e); d > max {
			max = d
		}
	}
	return max
}

// EntryOf returns the dense entry id of a value, or (-1, false) when
// the value was never indexed. Under an overlay, a value whose rows
// were all deleted keeps its entry (with zero rows); use Degree to test
// liveness. A base value keeps its base entry whether or not the
// overlay touched it, so the base is probed first and the overlay only
// for the values it introduced.
func (ix *Index) EntryOf(v Value) (int, bool) {
	e, ok := ix.base.entryOf(v)
	if ok || ix.ov == nil {
		return e, ok
	}
	if oe := ix.ov.lookup(v); oe >= 0 {
		// New value: dense id after the base entries.
		return len(ix.base.keys) + int(ix.ov.rank[oe]), true
	}
	return -1, false
}

// Rows returns the live row ids holding v, ascending. The slice aliases
// the index (clipped: an append reallocates); do not mutate it.
func (ix *Index) Rows(v Value) []int {
	if ix.ov != nil {
		if e := ix.ov.lookup(v); e >= 0 {
			return slices.Clip(ix.ov.rowsAt(e))
		}
	}
	return ix.base.rowsOf(v)
}

// Degree returns the number of live rows holding v.
func (ix *Index) Degree(v Value) int {
	if ix.ov != nil {
		if e := ix.ov.lookup(v); e >= 0 {
			return len(ix.ov.rowsAt(e))
		}
	}
	e, ok := ix.base.entryOf(v)
	if !ok {
		return 0
	}
	return ix.base.degreeAt(e)
}

// MaxDegree returns the maximum live value frequency.
func (ix *Index) MaxDegree() int { return ix.maxDeg }

// Version returns the relation version this index reflects. Structures
// derived from the index's row lists (the EW samplers' weight tables)
// record it so staleness is
// detectable: a relation mutation bumps the relation's version, and a
// mismatch means the derived structure describes an older snapshot.
func (ix *Index) Version() uint64 { return ix.version }

// SameBase reports whether ix and o are catch-ups of one CSR base, which
// is what keeps dense entry ids stable between them: an entry of the
// older index is the same entry, of the same value, in the newer one.
// A compaction builds a new base and renumbers.
func (ix *Index) SameBase(o *Index) bool { return ix.base == o.base }

// Distinct returns the number of distinct values with at least one live
// row.
func (ix *Index) Distinct() int {
	n := len(ix.base.keys)
	if ix.ov == nil {
		return n
	}
	for e := range ix.ov.keys {
		switch {
		case ix.ov.baseEnt[e] >= 0 && len(ix.ov.rowsAt(e)) == 0:
			n--
		case ix.ov.baseEnt[e] < 0 && len(ix.ov.rowsAt(e)) > 0:
			n++
		}
	}
	return n
}

// NumEntries returns the number of dense entries: base entries first
// (some possibly emptied by deletions), then values first seen through
// the overlay. Entries are addressed 0..NumEntries()-1.
func (ix *Index) NumEntries() int {
	n := len(ix.base.keys)
	if ix.ov != nil {
		n += len(ix.ov.extra)
	}
	return n
}

// EachEntry calls fn with the live row ids of every dense entry, in
// ascending entry id order (the slices are ascending and alias the
// index). A whole-index pass costs one sequential walk of the CSR base:
// under an overlay a bitmap marks the touched base entries, and only
// those pay a hash probe.
func (ix *Index) EachEntry(fn func(rows []int)) {
	b, ov := ix.base, ix.ov
	var touched []uint64
	if ov != nil {
		touched = make([]uint64, (len(b.keys)+63)/64)
		for _, be := range ov.baseEnt {
			if be >= 0 {
				touched[be>>6] |= 1 << (uint(be) & 63)
			}
		}
	}
	for e := range b.keys {
		if touched != nil && touched[e>>6]&(1<<(uint(e)&63)) != 0 {
			fn(slices.Clip(ov.rowsAt(ov.lookup(b.keys[e]))))
			continue
		}
		fn(b.rows[b.starts[e]:b.starts[e+1]])
	}
	if ov != nil {
		for _, oe := range ov.extra {
			fn(slices.Clip(ov.rowsAt(int(oe))))
		}
	}
}

// Bytes returns the bytes the index's arrays hold: the CSR base and, under
// an overlay, its directory, keys, entry maps, row-list headers and row
// lists (which may share storage with an older generation's).
func (ix *Index) Bytes() int64 {
	b := ix.base
	n := 4*int64(len(b.slots)+len(b.starts)) + 8*int64(cap(b.keys)+len(b.rows))
	if ov := ix.ov; ov != nil {
		n += ov.slots.Bytes() + 4*int64(cap(ov.baseEnt)+cap(ov.extra)+cap(ov.rank)) + 8*int64(cap(ov.keys)+cap(ov.rows)) + 24*hdrChunk*int64(len(ov.rows))
		for e := range ov.keys {
			n += 8 * int64(cap(ov.rowsAt(e)))
		}
	}
	return n
}

// ValueAt returns entry e's value.
func (ix *Index) ValueAt(e int) Value {
	if e < len(ix.base.keys) {
		return ix.base.keys[e]
	}
	return ix.ov.keys[ix.ov.extra[e-len(ix.base.keys)]]
}
