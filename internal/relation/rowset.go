package relation

import "fmt"

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
// not values: each open-addressed slot packs a 32-bit tag of the row's
// fingerprint above the row id + 1 (0 = empty), and a probe that meets a
// matching tag compares the row's values in the columns of the View it is
// given. A row is a member while it is live in that View, so a delete
// writes nothing here. Rows with equal values share a probe chain. A
// built set is immutable and safe for concurrent probes.
type RowSet struct {
	slots   []uint64
	n       int
	degrade uint64 // test-only: ANDed onto every fingerprint to force collisions
}

const rowIDBits = 32

// setSlots returns the slot count for n rows: a power of two at most
// three-quarters full.
func setSlots(n int) int {
	s := minSlots
	for n*4 > s*3 {
		s <<= 1
	}
	return s
}

// NewRowSet returns the set of v's live rows whose ids are from or more.
func NewRowSet(v View, from int) *RowSet {
	n := v.s.live
	if from > 0 {
		n = v.s.rows - from
	}
	s := &RowSet{slots: make([]uint64, setSlots(n)), degrade: v.degrade}
	for i := from; i < v.s.rows; i++ {
		if v.s.isLive(i) {
			s.insert(v, i)
		}
	}
	return s
}

// Len returns the number of rows the set was built with, including any
// that died since; 0 for a nil set.
func (s *RowSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Bytes returns the bytes the set's slot array holds; 0 for a nil set.
func (s *RowSet) Bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(len(s.slots)) * 8
}

func (s *RowSet) fingerprint(h uint64) uint64 {
	if s.degrade != 0 {
		h &= s.degrade
	}
	return h
}

// insert places row i of v; the slot array has room for it.
func (s *RowSet) insert(v View, i int) {
	if uint64(i)+1 >= 1<<rowIDBits {
		panic(fmt.Sprintf("relation: row id %d does not fit a row set slot", i))
	}
	h := s.fingerprint(keyHasher{}.hashRow(v.s.cols, i, nil))
	mask := uint64(len(s.slots) - 1)
	j := h & mask
	for s.slots[j] != 0 {
		j = (j + 1) & mask
	}
	s.slots[j] = h>>rowIDBits<<rowIDBits | uint64(i+1)
	s.n++
}

// scan counts the rows live in v whose values equal the projection of t
// (proj nil = identity; len(proj) must equal the relation's arity),
// stopping at the first when first is set. It allocates nothing.
func (s *RowSet) scan(v View, t Tuple, proj []int, first bool) int {
	h := s.fingerprint(keyHasher{}.hashProj(t, proj))
	tag := h >> rowIDBits
	mask := uint64(len(s.slots) - 1)
	c := 0
	for j := h & mask; ; j = (j + 1) & mask {
		sl := s.slots[j]
		if sl == 0 {
			return c
		}
		if sl>>rowIDBits == tag && v.matches(int(uint32(sl))-1, t, proj) {
			if c++; first {
				return c
			}
		}
	}
}

// Has reports whether a row of the set live in v holds the projection of
// t. A nil set holds nothing.
func (s *RowSet) Has(v View, t Tuple, proj []int) bool {
	return s != nil && s.scan(v, t, proj, true) > 0
}

// Count returns how many rows of the set live in v hold the projection
// of t. A nil set holds nothing.
func (s *RowSet) Count(v View, t Tuple, proj []int) int {
	if s == nil {
		return 0
	}
	return s.scan(v, t, proj, false)
}
