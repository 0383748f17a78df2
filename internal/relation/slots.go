package relation

import (
	"fmt"
	"iter"
	"sync/atomic"
)

// Slots is the open-addressed table of ids that live structures share
// with their older generations: index overlay entries, membership rows
// and weight overlay records. A slot holds the low 32 bits of the id's
// hash (its tag, whose low bits are its home slot) above id + 1; 0 =
// empty. A successor files its ids into the array it shares with its
// predecessor, and a probe skips ids at or past its reader's bound, so
// each generation answers for its own ids while successors are built;
// ids grow along a chain. A second successor extending one array would
// file where the first's readers probe, so Successor claims that once.
type Slots struct {
	words   []uint64
	n, end  int         // ids filed; 1 + the largest
	fill    int         // quarters of the slots ids may fill
	shared  bool        // a predecessor's readers probe words: store atomically
	claimed atomic.Bool // a successor extends words in place
}

// NewSlots returns an empty table with room for n ids while at most fill
// quarters of its slots are full.
func NewSlots(n, fill int) *Slots {
	size := minSlots
	for n*4 > size*fill {
		size <<= 1
	}
	return &Slots{words: make([]uint64, size), fill: fill}
}

// Len returns the number of ids filed.
func (s *Slots) Len() int { return s.n }

// Bytes returns the bytes of the slot array.
func (s *Slots) Bytes() int64 { return 8 * int64(len(s.words)) }

// Put files id under hash h, doubling the array first when one more id
// would pass the fill limit.
func (s *Slots) Put(h uint64, id int) {
	if uint(id) >= 1<<32-1 {
		panic(fmt.Sprintf("relation: id %d does not fit a slot", id))
	}
	if (s.n+1)*4 > len(s.words)*s.fill {
		s.words, s.shared = s.refile(2*len(s.words)), false
	}
	w := uint64(uint32(h))<<32 | uint64(id+1)
	if j := place(s.words, w); s.shared {
		atomic.StoreUint64(&s.words[j], w)
	} else {
		s.words[j] = w // no reader holds the array before it is published
	}
	s.n, s.end = s.n+1, max(s.end, id+1)
}

// place returns the first free slot of words from w's home on.
func place(words []uint64, w uint64) int {
	mask := uint64(len(words) - 1)
	j := w >> 32 & mask
	for words[j] != 0 {
		j = (j + 1) & mask
	}
	return int(j)
}

// refile returns an array of size slots holding s's ids: those below
// s.end, whatever a successor filed past them in the array they share.
func (s *Slots) refile(size int) []uint64 {
	words := make([]uint64, size)
	for i := range s.words {
		if w := atomic.LoadUint64(&s.words[i]); w != 0 && int(uint32(w)) <= s.end {
			words[place(words, w)] = w
		}
	}
	return words
}

// Successor returns the table a successor of s files into, and whether
// that extends s's array in place, which the first call claims. Every
// other call gets a copy.
func (s *Slots) Successor() (*Slots, bool) {
	next := &Slots{words: s.words, n: s.n, end: s.end, fill: s.fill, shared: true}
	if !s.claimed.CompareAndSwap(false, true) {
		next.words, next.shared = s.refile(len(s.words)), false
	}
	return next, next.shared
}

// Probe yields the ids below bound that s filed under h, and any others
// of the same tag, which the caller tells apart. A nil table holds none.
func (s *Slots) Probe(h uint64, bound int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if s == nil {
			return
		}
		mask := uint64(len(s.words) - 1)
		for j := h & mask; ; j = (j + 1) & mask {
			w := atomic.LoadUint64(&s.words[j])
			if w == 0 {
				return
			}
			if id := int(uint32(w)) - 1; w>>32 == uint64(uint32(h)) && id < bound && !yield(id) {
				return
			}
		}
	}
}
