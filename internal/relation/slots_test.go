package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// setSlots is the membership base's slot count for n rows: the least
// power of two, 16 at least, that n rows fill three-quarters at most.
func setSlots(n int) int {
	s := 16
	for n*4 > s*3 {
		s <<= 1
	}
	return s
}

// slotGen is one generation of a Slots table beside its oracle: id i was
// filed under hashes[i].
type slotGen struct {
	s      *Slots
	hashes []uint64
}

// check probes g for every hash of domain and compares the ids filed
// under it with the oracle's. A probe may also yield ids of the same tag
// (the caller tells them apart), never one of another tag or one past
// g's ids, and never one twice.
func (g slotGen) check(domain []uint64) error {
	want := map[uint64][]int{}
	for id, h := range g.hashes {
		want[h] = append(want[h], id)
	}
	if g.s.Len() != len(g.hashes) {
		return fmt.Errorf("Len %d, filed %d", g.s.Len(), len(g.hashes))
	}
	for _, h := range domain {
		var got, seen []int
		for id := range g.s.Probe(h, len(g.hashes)) {
			if id >= len(g.hashes) || uint32(g.hashes[id]) != uint32(h) || slices.Contains(seen, id) {
				return fmt.Errorf("probe of %#x yields id %d of %d (seen %v)", h, id, len(g.hashes), seen)
			}
			seen = append(seen, id)
			if g.hashes[id] == h {
				got = append(got, id)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want[h]) {
			return fmt.Errorf("probe of %#x finds ids %v, filed %v", h, got, want[h])
		}
	}
	return nil
}

// FuzzSlots runs a script of puts, successors and siblings over one
// chain of Slots generations, with every hash ANDed with mask (0 leaves
// it whole; a small mask makes tags collide and chains long). Readers
// keep probing every generation published so far while the next is
// built (run under -race: a put where an older generation reads is a
// race), and after the last step each generation is probed again
// against its oracle. A script byte b puts key b>>3 into the generation
// being built (b%8 < 5), publishes it and starts its successor (5), or
// publishes it and starts a sibling: a successor of an older generation,
// which may have one already (6, 7).
func FuzzSlots(f *testing.F) {
	rnd := rand.New(rand.NewSource(1))
	for i, mask := range []uint8{0, 0x3, 0x1f, 0} {
		script := make([]byte, 240)
		rnd.Read(script)
		f.Add(script, mask, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, script []byte, mask uint8, half bool) {
		if len(script) > 400 {
			script = script[:400]
		}
		fill := 3
		if half {
			fill = 2
		}
		domain := make([]uint64, 32)
		for k := range domain {
			if domain[k] = mix(uint64(k) + keySeed0); mask != 0 {
				domain[k] &= uint64(mask)
			}
		}
		var mu sync.Mutex
		var gens []slotGen
		done := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for i := r; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					mu.Lock()
					n := len(gens)
					var g slotGen
					if n > 0 {
						g = gens[i%n]
					}
					mu.Unlock()
					if n == 0 {
						continue
					}
					if err := g.check(domain); err != nil {
						t.Errorf("generation of %d ids, while its successors were built: %v", len(g.hashes), err)
						return
					}
				}
			}(r)
		}
		publish := func(g slotGen) {
			mu.Lock()
			gens = append(gens, g)
			mu.Unlock()
		}
		successor := func(g slotGen) slotGen {
			s, _ := g.s.Successor()
			return slotGen{s: s, hashes: slices.Clip(g.hashes)}
		}
		cur := slotGen{s: NewSlots(0, fill)}
		for _, b := range script {
			switch op := b % 8; {
			case op < 5:
				h := domain[b>>3]
				cur.s.Put(h, len(cur.hashes))
				cur.hashes = append(cur.hashes, h)
			case op == 5:
				publish(cur)
				cur = successor(cur)
			default:
				publish(cur)
				mu.Lock()
				older := gens[int(b>>3)%len(gens)]
				mu.Unlock()
				cur = successor(older)
			}
		}
		publish(cur)
		close(done)
		readers.Wait()
		for i, g := range gens {
			if err := g.check(domain); err != nil {
				t.Fatalf("generation %d after the last step: %v", i, err)
			}
		}
	})
}

// TestSlotsPutRange: an id a slot cannot hold beside its tag panics
// instead of wrapping into another id.
func TestSlotsPutRange(t *testing.T) {
	put := func(id int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		NewSlots(1, 3).Put(0, id)
		return false
	}
	if put(1<<32-2) || !put(1<<32-1) || !put(-1) {
		t.Fatal("Put must take ids 0 .. 2^32-2 and panic past them")
	}
}
