package relation

import "cmp"

// View is one published snapshot of a relation's storage paired with the
// version it reflects. Storage is monotone and tombstones are
// copy-on-write, so the values and the liveness a View reports for a row
// below Rows never change: a structure that stores row ids can check them
// against its View instead of copying their values.
type View struct {
	s       *snapshot
	version uint64
	degrade uint64 // the relation's test-only hash degradation at the pin
}

// Pin captures the published snapshot and its version under the mutation
// lock and turns the mutation log on, so a structure built over the view
// can catch up from Version through PinSince.
func (r *Relation) Pin() View {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pinLocked()
}

// PinSince is Pin together with the mutation-log tail that leads from
// version since to the pinned one, captured under the same lock; ok is
// false when that tail is no longer retained. The tail aliases the log,
// whose entries are never rewritten: treat it as read-only.
func (r *Relation) PinSince(since uint64) (v View, tail []Mutation, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v = r.pinLocked()
	tail, _, ok = r.mutationsSinceLocked(since)
	return v, tail[:len(tail):len(tail)], ok
}

func (r *Relation) pinLocked() View {
	r.enableLogLocked()
	return View{s: r.snap.Load(), version: r.version.Load(), degrade: r.testDegrade}
}

// Version returns the relation version the view reflects.
func (v View) Version() uint64 { return v.version }

// Rows returns the view's physical row count, dead rows included.
func (v View) Rows() int { return v.s.rows }

// matches reports whether row is live in v and its values equal the
// projection of t (proj nil = identity).
func (v View) matches(row int, t Tuple, proj []int) bool {
	if !v.s.isLive(row) {
		return false
	}
	if proj == nil {
		for a, c := range v.s.cols {
			if c[row] != t[a] {
				return false
			}
		}
		return true
	}
	for a, c := range v.s.cols {
		if c[row] != t[proj[a]] {
			return false
		}
	}
	return true
}

// RowSet is a multiset of full rows of one relation that stores row ids,
// not values: its Slots file each row id under the row's fingerprint, and
// a probe that meets a matching tag compares the row's values in the
// columns of the View it is given. A row is a member while it is live in
// that View, so a delete writes nothing here. A set is extended rather
// than rebuilt (Extend): the successor files the rows appended since into
// the slot array it shares with its predecessor (Slots.Successor), whose
// probes its View bounds.
type RowSet struct {
	slots *Slots
	mask  uint64 // ANDed onto every fingerprint: all ones unless a test forces collisions
}

// NewRowSet returns the set of v's live rows whose ids are from or more.
// Its slots are at most three-quarters full.
func NewRowSet(v View, from int) *RowSet {
	n := v.s.live
	if from > 0 {
		n = v.s.rows - from
	}
	s := &RowSet{slots: NewSlots(n, 3), mask: cmp.Or(v.degrade, ^uint64(0))}
	if s.slots.Bytes() <= cacheBytes {
		return s.insertFrom(v, from)
	}
	s.slots.putOrdered(n, func(yield func(uint64, int) bool) {
		for i := from; i < v.s.rows; i++ {
			if v.s.isLive(i) && !yield(keyHasher{}.hashRow(v.s.cols, i, nil)&s.mask, i) {
				return
			}
		}
	}, fillChunk)
	return s
}

// cacheBytes is the slot-array size up to which NewRowSet files rows in
// row-id order: an array that fits a core's cache takes random writes at
// cache speed, and a larger one is filed in home-slot order
// (Slots.putOrdered), whose writes sweep it instead of missing the cache
// once a row.
const cacheBytes = 2 << 20

// Extend returns s's successor: s's rows and v's live rows whose ids are
// from or more, where from is the row count of the view s was last built
// or extended over (nil s: NewRowSet). s keeps answering as before: its
// probes skip the rows v added.
func (s *RowSet) Extend(v View, from int) *RowSet {
	if s == nil {
		return NewRowSet(v, from)
	}
	next := *s
	next.slots, _ = s.slots.Successor()
	return next.insertFrom(v, from)
}

// Len returns the number of rows the set holds, including any that died
// since they were inserted; 0 for a nil set.
func (s *RowSet) Len() int {
	if s == nil {
		return 0
	}
	return s.slots.Len()
}

// Bytes returns the bytes the set's slot array holds; 0 for a nil set.
func (s *RowSet) Bytes() int64 {
	if s == nil {
		return 0
	}
	return s.slots.Bytes()
}

// insertFrom inserts v's live rows whose ids are from or more into s.
func (s *RowSet) insertFrom(v View, from int) *RowSet {
	for i := from; i < v.s.rows; i++ {
		if v.s.isLive(i) {
			s.slots.Put(keyHasher{}.hashRow(v.s.cols, i, nil)&s.mask, i)
		}
	}
	return s
}

// scan counts the rows live in v whose values equal the projection of t
// (proj nil = identity; len(proj) must equal the relation's arity),
// stopping at the first when first is set; its probe skips the rows v
// does not have. A nil set holds nothing. It allocates nothing.
func (s *RowSet) scan(v View, t Tuple, proj []int, first bool) int {
	if s == nil {
		return 0
	}
	c := 0
	for row := range s.slots.Probe(keyHasher{}.hashProj(t, proj)&s.mask, v.s.rows) {
		if v.matches(row, t, proj) {
			if c++; first {
				break
			}
		}
	}
	return c
}

// Has reports whether a row of the set live in v holds the projection of
// t. A nil set holds nothing.
func (s *RowSet) Has(v View, t Tuple, proj []int) bool { return s.scan(v, t, proj, true) > 0 }

// Count returns how many rows of the set live in v hold the projection
// of t. A nil set holds nothing.
func (s *RowSet) Count(v View, t Tuple, proj []int) int { return s.scan(v, t, proj, false) }
