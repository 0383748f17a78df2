package relation

// 64-bit tuple keys. RowSet and KeyCounter identify tuple values by a
// 64-bit mix of the values rather than by an encoded string key
// (TupleKey), so a lookup allocates nothing. The fingerprint is not
// trusted: a slot matches only after exact equality verification, so
// collisions cost a probe, never correctness.
//
// Both file their ids in a Slots table (slots.go). RowSet (rowset.go)
// backs Join.Contains and verifies row ids against the relation's
// columns. KeyCounter copies each key's values into an arena beside a
// count, for a cyclic join's residual (its rows grouped by
// link-attribute projection) and DistinctProject. Its lookups take a
// proj slice that reads t[proj[i]] instead of t[i], hashing and comparing
// the projection without materializing it.
//
// A KeyCounter is not safe for concurrent mutation; a fully built one is
// safe for concurrent reads.

const (
	// keyMul1/keyMul2 are the SplitMix64 finalizer multipliers; keySeed0
	// is the default hash seed.
	keyMul1  = 0xBF58476D1CE4E5B9
	keyMul2  = 0x94D049BB133111EB
	keySeed0 = 0x9E3779B97F4A7C15
)

// keyHasher mixes tuple values into a 64-bit fingerprint. The zero
// value uses the default seed; tests use explicit seeds (and the
// tables' test-only hash degradation) to force collisions.
type keyHasher struct{ seed uint64 }

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

// hashProj fingerprints the projection t[proj[0]], t[proj[1]], ...
// (proj nil = all of t).
func (h keyHasher) hashProj(t Tuple, proj []int) uint64 {
	acc := h.seed + keySeed0
	if proj == nil {
		for _, v := range t {
			acc = mix(acc + uint64(v))
		}
		return acc
	}
	for _, p := range proj {
		acc = mix(acc + uint64(t[p]))
	}
	return acc
}

// hashRow fingerprints row i of the column vectors through proj (nil =
// identity): the value sequence cols[proj[0]][i], cols[proj[1]][i], ...
// It must agree with hashProj on the materialized row — the key is a
// pure function of the value sequence, not of how it is accessed.
func (h keyHasher) hashRow(cols [][]Value, i int, proj []int) uint64 {
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

const minSlots = 16

// KeyCounter maps fixed-arity keys to ints: the allocation-free
// replacement for map[string]int over TupleKey strings. A Slots table
// files a dense entry list (key values in a flat arena, a count beside
// them); entries are never removed, so every distinct key keeps a
// stable dense handle, its insertion rank.
type KeyCounter struct {
	hasher keyHasher
	arity  int
	slots  *Slots  // entry handles, filed by fingerprint
	vals   []Value // arena: entry e at vals[e*arity : (e+1)*arity]
	counts []int   // per entry

	// degradeMask, when non-zero, is ANDed onto every fingerprint.
	// Test-only: it collapses the hash space to force collisions so the
	// exact-equality verification path is exercised.
	degradeMask uint64
}

// NewKeyCounter returns an empty counter for keys of the given arity,
// pre-sized for about sizeHint entries.
func NewKeyCounter(arity, sizeHint int) *KeyCounter {
	return &KeyCounter{arity: arity, slots: NewSlots(sizeHint, 3)}
}

// Len reports the number of distinct keys.
func (c *KeyCounter) Len() int { return len(c.counts) }

// At returns the value stored at a handle.
func (c *KeyCounter) At(handle int) int { return c.counts[handle] }

func (c *KeyCounter) fingerprint(h uint64) uint64 {
	if c.degradeMask != 0 {
		h &= c.degradeMask
	}
	return h
}

// Lookup returns the handle of the projection t[proj[0]], t[proj[1]],
// ... (proj nil = identity; len(proj) must otherwise equal the arity), or
// (-1, false). The projection is hashed and compared through the access
// path, never materialized: it allocates nothing.
func (c *KeyCounter) Lookup(t Tuple, proj []int) (int, bool) {
	for e := range c.slots.Probe(c.fingerprint(c.hasher.hashProj(t, proj)), len(c.counts)) {
		if c.equalProj(e, t, proj) {
			return e, true
		}
	}
	return -1, false
}

// equalProj reports whether entry e's key equals the projection of t.
func (c *KeyCounter) equalProj(e int, t Tuple, proj []int) bool {
	for i, v := range c.vals[e*c.arity : (e+1)*c.arity] {
		p := i
		if proj != nil {
			p = proj[i]
		}
		if t[p] != v {
			return false
		}
	}
	return true
}

// LookupRow returns the handle of row i of the column vectors under proj
// (nil = identity), or (-1, false) — the columnar counterpart of Lookup,
// hashing straight from the column codes.
func (c *KeyCounter) LookupRow(cols [][]Value, i int, proj []int) (int, bool) {
	e, _ := c.lookupRow(cols, i, proj)
	return e, e >= 0
}

// lookupRow returns the handle of row i of cols under proj, or -1, and
// the key's fingerprint.
func (c *KeyCounter) lookupRow(cols [][]Value, i int, proj []int) (int, uint64) {
	h := c.fingerprint(c.hasher.hashRow(cols, i, proj))
	for e := range c.slots.Probe(h, len(c.counts)) {
		if c.equalRow(e, cols, i, proj) {
			return e, h
		}
	}
	return -1, h
}

// equalRow reports whether entry e's key equals row i of cols under
// proj.
func (c *KeyCounter) equalRow(e int, cols [][]Value, i int, proj []int) bool {
	for a, v := range c.vals[e*c.arity : (e+1)*c.arity] {
		p := a
		if proj != nil {
			p = proj[a]
		}
		if cols[p][i] != v {
			return false
		}
	}
	return true
}

// AddRow adds delta to the value keyed by row i of the column vectors
// under proj (nil = identity), inserting the key at zero if absent, and
// returns the handle and the new value.
func (c *KeyCounter) AddRow(cols [][]Value, i int, proj []int, delta int) (int, int) {
	e, h := c.lookupRow(cols, i, proj)
	if e >= 0 {
		c.counts[e] += delta
		return e, c.counts[e]
	}
	e = len(c.counts)
	c.counts = append(c.counts, delta)
	for a := 0; a < c.arity; a++ {
		p := a
		if proj != nil {
			p = proj[a]
		}
		c.vals = append(c.vals, cols[p][i])
	}
	c.slots.Put(h, e)
	return e, delta
}
