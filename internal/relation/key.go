package relation

import "slices"

// 64-bit tuple keys. The sampling hot path used to identify tuple
// values by string keys (TupleKey): every record lookup, membership
// probe, and distinct-projection test allocated an 8·arity-byte string.
// KeySet and KeyCounter replace those maps with open-addressed tables
// keyed by a 64-bit mix of the tuple's values. The fingerprint is not
// trusted: a slot matches only after exact tuple-equality verification
// against the table's value arena, so collisions cost a probe, never
// correctness.
//
// Both tables support projected access: Lookup/Insert with a proj slice
// read t[proj[i]] instead of t[i], hashing and comparing the projection
// without materializing it. That is what makes Join.Contains and the
// per-run records allocation-free — the projection never exists as a
// tuple, only as an access path.
//
// Tables have a fixed arity. They are not safe for concurrent mutation;
// a fully built table is safe for concurrent reads.

const (
	// keyMul1/keyMul2 are the SplitMix64 finalizer multipliers; keySeed0
	// is the default hash seed.
	keyMul1  = 0xBF58476D1CE4E5B9
	keyMul2  = 0x94D049BB133111EB
	keySeed0 = 0x9E3779B97F4A7C15
)

// KeyHasher mixes tuple values into a 64-bit fingerprint. The zero
// value uses the default seed; tests use explicit seeds (and the
// tables' test-only hash degradation) to force collisions.
type KeyHasher struct {
	seed uint64
}

// NewKeyHasher returns a hasher with an explicit seed. Two hashers with
// different seeds produce unrelated fingerprints for the same tuple.
func NewKeyHasher(seed uint64) KeyHasher { return KeyHasher{seed: seed} }

// mix is the SplitMix64 finalizer: every input bit avalanches through
// the output.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= keyMul1
	z ^= z >> 27
	z *= keyMul2
	z ^= z >> 31
	return z
}

// Hash fingerprints t.
func (h KeyHasher) Hash(t Tuple) uint64 {
	acc := h.seed + keySeed0
	for _, v := range t {
		acc = mix(acc + uint64(v))
	}
	return acc
}

// hashProj fingerprints the projection t[proj[0]], t[proj[1]], ...
// (proj nil = identity). It must agree with Hash on the materialized
// projection.
func (h KeyHasher) hashProj(t Tuple, proj []int) uint64 {
	if proj == nil {
		return h.Hash(t)
	}
	acc := h.seed + keySeed0
	for _, p := range proj {
		acc = mix(acc + uint64(t[p]))
	}
	return acc
}

// hashRow fingerprints row i of the column vectors through proj (nil =
// identity): the value sequence cols[proj[0]][i], cols[proj[1]][i], ...
// It must agree with Hash on the materialized row — the key is a pure
// function of the value sequence, not of how it is accessed.
func (h KeyHasher) hashRow(cols [][]Value, i int, proj []int) uint64 {
	acc := h.seed + keySeed0
	if proj == nil {
		for _, c := range cols {
			acc = mix(acc + uint64(c[i]))
		}
		return acc
	}
	for _, p := range proj {
		acc = mix(acc + uint64(cols[p][i]))
	}
	return acc
}

// keyTable is the shared open-addressed core: a slot array indexing a
// dense entry list (hash + tuple values in a flat arena). Entries are
// never removed; handles (entry indexes) are stable and dense in
// insertion order.
type keyTable struct {
	hasher KeyHasher
	arity  int
	slots  []int32  // entry index + 1; 0 = empty
	hashes []uint64 // per entry
	vals   []Value  // arena: entry e at vals[e*arity : (e+1)*arity]

	// degradeMask, when non-zero, is ANDed onto every fingerprint.
	// Test-only: it collapses the hash space to force collisions so the
	// exact-equality verification path is exercised.
	degradeMask uint64
}

const minSlots = 16

func newKeyTable(arity, sizeHint int) keyTable {
	n := minSlots
	for n < sizeHint*2 {
		n <<= 1
	}
	return keyTable{
		arity: arity,
		slots: make([]int32, n),
	}
}

func (kt *keyTable) hash(t Tuple, proj []int) uint64 {
	h := kt.hasher.hashProj(t, proj)
	if kt.degradeMask != 0 {
		h &= kt.degradeMask
	}
	return h
}

// equalProj reports whether entry e's key equals the projection of t.
func (kt *keyTable) equalProj(e int, t Tuple, proj []int) bool {
	key := kt.vals[e*kt.arity : (e+1)*kt.arity]
	if proj == nil {
		for i, v := range key {
			if t[i] != v {
				return false
			}
		}
		return true
	}
	for i, v := range key {
		if t[proj[i]] != v {
			return false
		}
	}
	return true
}

// lookup returns the entry handle for the projection of t, or -1.
func (kt *keyTable) lookup(t Tuple, proj []int) int {
	h := kt.hash(t, proj)
	mask := uint64(len(kt.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := kt.slots[i]
		if s == 0 {
			return -1
		}
		e := int(s - 1)
		if kt.hashes[e] == h && kt.equalProj(e, t, proj) {
			return e
		}
	}
}

// insert adds the projection of t, assuming lookup returned -1, and
// returns the new entry's handle.
func (kt *keyTable) insert(t Tuple, proj []int) int {
	if (len(kt.hashes)+1)*4 > len(kt.slots)*3 {
		kt.grow()
	}
	h := kt.hash(t, proj)
	e := len(kt.hashes)
	kt.hashes = append(kt.hashes, h)
	if proj == nil {
		kt.vals = append(kt.vals, t[:kt.arity]...)
	} else {
		for _, p := range proj {
			kt.vals = append(kt.vals, t[p])
		}
	}
	mask := uint64(len(kt.slots) - 1)
	i := h & mask
	for kt.slots[i] != 0 {
		i = (i + 1) & mask
	}
	kt.slots[i] = int32(e + 1)
	return e
}

// rowHash, equalRow, lookupRow, and insertRow are the columnar access
// path: the key is row i of the column vectors seen through proj,
// hashed and compared straight from the column codes — no tuple is
// ever materialized.

func (kt *keyTable) rowHash(cols [][]Value, i int, proj []int) uint64 {
	h := kt.hasher.hashRow(cols, i, proj)
	if kt.degradeMask != 0 {
		h &= kt.degradeMask
	}
	return h
}

// equalRow reports whether entry e's key equals row i of cols under
// proj.
func (kt *keyTable) equalRow(e int, cols [][]Value, i int, proj []int) bool {
	key := kt.vals[e*kt.arity : (e+1)*kt.arity]
	if proj == nil {
		for a, v := range key {
			if cols[a][i] != v {
				return false
			}
		}
		return true
	}
	for a, v := range key {
		if cols[proj[a]][i] != v {
			return false
		}
	}
	return true
}

// lookupRow returns the entry handle for row i of cols under proj, or
// -1.
func (kt *keyTable) lookupRow(cols [][]Value, i int, proj []int) int {
	h := kt.rowHash(cols, i, proj)
	mask := uint64(len(kt.slots) - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		s := kt.slots[j]
		if s == 0 {
			return -1
		}
		e := int(s - 1)
		if kt.hashes[e] == h && kt.equalRow(e, cols, i, proj) {
			return e
		}
	}
}

// insertRow adds row i of cols under proj, assuming lookupRow returned
// -1, and returns the new entry's handle.
func (kt *keyTable) insertRow(cols [][]Value, i int, proj []int) int {
	if (len(kt.hashes)+1)*4 > len(kt.slots)*3 {
		kt.grow()
	}
	h := kt.rowHash(cols, i, proj)
	e := len(kt.hashes)
	kt.hashes = append(kt.hashes, h)
	if proj == nil {
		for a := 0; a < kt.arity; a++ {
			kt.vals = append(kt.vals, cols[a][i])
		}
	} else {
		for _, p := range proj {
			kt.vals = append(kt.vals, cols[p][i])
		}
	}
	mask := uint64(len(kt.slots) - 1)
	j := h & mask
	for kt.slots[j] != 0 {
		j = (j + 1) & mask
	}
	kt.slots[j] = int32(e + 1)
	return e
}

// grow doubles the slot array and rehashes every entry from its stored
// fingerprint.
func (kt *keyTable) grow() { kt.rehash(len(kt.slots) * 2) }

// rehash replaces the slot array with one of n slots (a power of two)
// and places every entry again from its stored fingerprint.
func (kt *keyTable) rehash(n int) {
	slots := make([]int32, n)
	mask := uint64(len(slots) - 1)
	for e, h := range kt.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(e + 1)
	}
	kt.slots = slots
}

// grown returns s with room for n more elements: exactly n when s has no
// storage yet (a table reserved once, before its build, is exactly
// sized), amortized growth otherwise.
func grown[E any](s []E, n int) []E {
	if cap(s) == 0 {
		return make([]E, 0, n)
	}
	return slices.Grow(s, n)
}

// reserve makes room for n more entries, so that inserting them grows
// neither the slot array nor the entry arrays.
func (kt *keyTable) reserve(n int) {
	kt.hashes = grown(kt.hashes, n)
	kt.vals = grown(kt.vals, n*kt.arity)
	slots := len(kt.slots)
	for (len(kt.hashes)+n)*4 > slots*3 {
		slots <<= 1
	}
	if slots > len(kt.slots) {
		kt.rehash(slots)
	}
}

// KeySet is a set of fixed-arity tuples: the allocation-free
// replacement for map[string]struct{} over TupleKey strings.
type KeySet struct {
	kt keyTable
}

// NewKeySet returns an empty set for tuples of the given arity,
// pre-sized for about sizeHint entries.
func NewKeySet(arity, sizeHint int) *KeySet {
	return &KeySet{kt: newKeyTable(arity, sizeHint)}
}

// Len reports the number of distinct tuples in the set.
func (s *KeySet) Len() int { return len(s.kt.hashes) }

// Contains reports whether t is in the set.
func (s *KeySet) Contains(t Tuple) bool { return s.kt.lookup(t, nil) >= 0 }

// ContainsProj reports whether the projection t[proj[0]], t[proj[1]],
// ... is in the set, without materializing it. len(proj) must equal the
// set's arity. It performs no allocation and, on a fully built set, is
// safe for concurrent use.
func (s *KeySet) ContainsProj(t Tuple, proj []int) bool { return s.kt.lookup(t, proj) >= 0 }

// Insert adds t and reports whether it was absent.
func (s *KeySet) Insert(t Tuple) bool { return s.InsertProj(t, nil) }

// InsertProj adds the projection of t and reports whether it was absent.
func (s *KeySet) InsertProj(t Tuple, proj []int) bool {
	if s.kt.lookup(t, proj) >= 0 {
		return false
	}
	s.kt.insert(t, proj)
	return true
}

// InsertRow adds row i of the column vectors under proj and reports
// whether it was absent.
func (s *KeySet) InsertRow(cols [][]Value, i int, proj []int) bool {
	if s.kt.lookupRow(cols, i, proj) >= 0 {
		return false
	}
	s.kt.insertRow(cols, i, proj)
	return true
}

// KeyCounter maps fixed-arity tuples to ints: the allocation-free
// replacement for map[string]int over TupleKey strings. Every distinct
// key receives a stable dense handle (its insertion rank); callers that
// previously compared string keys compare handles instead.
type KeyCounter struct {
	kt     keyTable
	counts []int
}

// NewKeyCounter returns an empty counter for tuples of the given arity,
// pre-sized for about sizeHint entries.
func NewKeyCounter(arity, sizeHint int) *KeyCounter {
	return &KeyCounter{kt: newKeyTable(arity, sizeHint)}
}

// Len reports the number of distinct keys.
func (c *KeyCounter) Len() int { return len(c.counts) }

// Lookup returns the handle of the projection of t, or (-1, false).
// proj nil means identity; len(proj) must otherwise equal the counter's
// arity. Allocation-free.
func (c *KeyCounter) Lookup(t Tuple, proj []int) (int, bool) {
	e := c.kt.lookup(t, proj)
	return e, e >= 0
}

// Get returns the value stored for the projection of t.
func (c *KeyCounter) Get(t Tuple, proj []int) (int, bool) {
	if e := c.kt.lookup(t, proj); e >= 0 {
		return c.counts[e], true
	}
	return 0, false
}

// Add adds delta to the value for the projection of t (inserting the
// key at zero if absent) and returns the handle and the new value.
func (c *KeyCounter) Add(t Tuple, proj []int, delta int) (int, int) {
	e := c.kt.lookup(t, proj)
	if e < 0 {
		e = c.kt.insert(t, proj)
		c.counts = append(c.counts, delta)
		return e, delta
	}
	c.counts[e] += delta
	return e, c.counts[e]
}

// LookupRow returns the handle of row i of the column vectors under
// proj (nil = identity), or (-1, false) — the columnar counterpart of
// Lookup, hashing straight from the column codes.
func (c *KeyCounter) LookupRow(cols [][]Value, i int, proj []int) (int, bool) {
	e := c.kt.lookupRow(cols, i, proj)
	return e, e >= 0
}

// AddRow adds delta to the value keyed by row i of the column vectors
// under proj (inserting the key at zero if absent) and returns the
// handle and the new value — the columnar counterpart of Add.
func (c *KeyCounter) AddRow(cols [][]Value, i int, proj []int, delta int) (int, int) {
	e := c.kt.lookupRow(cols, i, proj)
	if e < 0 {
		e = c.kt.insertRow(cols, i, proj)
		c.counts = append(c.counts, delta)
		return e, delta
	}
	c.counts[e] += delta
	return e, c.counts[e]
}

// Extend returns a successor with room for n more keys, leaving c as it
// is. Entries are never removed, so it shares c's hashes and key arena and
// appends past their ends; it copies what Add writes in place (slots,
// counts). So c may have one successor: a second would write where
// readers of the first read.
func (c *KeyCounter) Extend(n int) *KeyCounter {
	s := &KeyCounter{kt: c.kt, counts: append(make([]int, 0, len(c.counts)+n), c.counts...)}
	if s.kt.reserve(n); len(s.kt.slots) == len(c.kt.slots) { // not rehashed
		s.kt.slots = slices.Clone(c.kt.slots)
	}
	return s
}

// Reserve makes room for n more keys, so that inserting them allocates
// nothing. It changes no lookup, handle or stored value.
func (c *KeyCounter) Reserve(n int) {
	if n <= 0 {
		return
	}
	c.kt.reserve(n)
	c.counts = grown(c.counts, n)
}

// Cap reports how many keys the counter's storage holds before it grows:
// after a Reserve and no more inserts than it made room for, Len.
func (c *KeyCounter) Cap() int { return cap(c.counts) }

// At returns the value stored at a handle.
func (c *KeyCounter) At(handle int) int { return c.counts[handle] }
