package relation

import (
	"fmt"
	"sync/atomic"
)

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
// writes nothing here. Rows with equal values share a probe chain.
//
// A set is extended rather than rebuilt (Extend): the successor inserts
// the rows appended since into the slot array it shares with its
// predecessor, with atomic stores, and copies the array only when it has
// to grow. A probe reads slots with atomic loads and skips a slot whose
// row id its View does not have yet, so every generation answers for its
// own rows while its successors are built. A set may have one successor:
// a second would insert where the first's readers probe.
type RowSet struct {
	slots   []uint64 // atomic where a predecessor's readers may probe
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
	s.insertFrom(v, from, false)
	return s
}

// Extend returns s's successor: s's rows and v's live rows whose ids are
// from or more, where from is the row count of the view s was last built
// or extended over (nil s: NewRowSet). It inserts in place while the
// slot array stays three-quarters full at most, and otherwise moves
// every row still live in v into an array of twice the slots. s keeps
// answering as before: its probes skip the rows v added.
func (s *RowSet) Extend(v View, from int) *RowSet {
	if s == nil {
		return NewRowSet(v, from)
	}
	next, shared := *s, true
	if (s.n+v.s.rows-from)*4 > len(s.slots)*3 {
		next.slots, next.n, shared = make([]uint64, max(2*len(s.slots), setSlots(s.n+v.s.rows-from))), 0, false
		for _, sl := range s.slots {
			if i := int(uint32(sl)) - 1; sl != 0 && v.s.isLive(i) {
				next.insert(v, i, false)
			}
		}
	}
	next.insertFrom(v, from, shared)
	return &next
}

// Len returns the number of rows the set holds, including any that died
// since they were inserted; 0 for a nil set.
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

// insertFrom inserts v's live rows whose ids are from or more.
func (s *RowSet) insertFrom(v View, from int, shared bool) {
	for i := from; i < v.s.rows; i++ {
		if v.s.isLive(i) {
			s.insert(v, i, shared)
		}
	}
}

// insert places row i of v; the slot array has room for it. A slot of
// an array shared with a predecessor is stored atomically; an array no
// reader holds yet is published later, by whoever publishes the set.
func (s *RowSet) insert(v View, i int, shared bool) {
	if uint64(i)+1 >= 1<<rowIDBits {
		panic(fmt.Sprintf("relation: row id %d does not fit a row set slot", i))
	}
	h := s.fingerprint(keyHasher{}.hashRow(v.s.cols, i, nil))
	mask := uint64(len(s.slots) - 1)
	j := h & mask
	for atomic.LoadUint64(&s.slots[j]) != 0 {
		j = (j + 1) & mask
	}
	if sl := h>>rowIDBits<<rowIDBits | uint64(i+1); shared {
		atomic.StoreUint64(&s.slots[j], sl)
	} else {
		s.slots[j] = sl
	}
	s.n++
}

// scan counts the rows live in v whose values equal the projection of t
// (proj nil = identity; len(proj) must equal the relation's arity),
// stopping at the first when first is set. A slot holding a row v does
// not have is occupied but matches nothing. It allocates nothing.
func (s *RowSet) scan(v View, t Tuple, proj []int, first bool) int {
	h := s.fingerprint(keyHasher{}.hashProj(t, proj))
	tag := h >> rowIDBits
	mask := uint64(len(s.slots) - 1)
	c := 0
	for j := h & mask; ; j = (j + 1) & mask {
		sl := atomic.LoadUint64(&s.slots[j])
		if sl == 0 {
			return c
		}
		if row := int(uint32(sl)) - 1; sl>>rowIDBits == tag && row < v.s.rows && v.matches(row, t, proj) {
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
