package relation

import (
	"math/rand"
	"sync"
	"testing"
)

// randTuple draws a tuple whose values collide often (small domain), so
// the reference map sees plenty of repeated keys.
func randTuple(r *rand.Rand, arity int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		t[i] = Value(r.Intn(8) - 2) // include negatives
	}
	return t
}

// checkCounterAgainstReference drives a KeyCounter and a reference
// map[string]int (keyed by TupleKey, the pre-refactor scheme) through
// the same random operation stream and fails on any divergence. Now and
// then the stream reserves room in the counter alone, which must change
// nothing the reference can see.
func checkCounterAgainstReference(t *testing.T, seed int64, degrade uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for _, arity := range []int{1, 2, 3, 5} {
		kc := NewKeyCounter(arity, 0)
		kc.kt.hasher = NewKeyHasher(uint64(seed))
		kc.kt.degradeMask = degrade
		ref := make(map[string]int)
		refOrder := make(map[string]int) // key -> expected handle (insertion rank)
		keys := make(map[string]Tuple)
		for op := 0; op < 3000; op++ {
			if r.Intn(100) == 0 {
				kc.Reserve(r.Intn(200))
			}
			tu := randTuple(r, arity)
			key := TupleKey(tu)
			switch r.Intn(3) {
			case 0, 1: // Add, by one or by a random (possibly negative) delta
				delta := 1
				if r.Intn(2) == 0 {
					delta = r.Intn(100) - 50
				}
				h, c := kc.Add(tu, nil, delta)
				if _, seen := ref[key]; !seen {
					refOrder[key] = len(refOrder)
					keys[key] = tu
				}
				ref[key] += delta
				if c != ref[key] || h != refOrder[key] {
					t.Fatalf("arity %d op %d: Add = (%d,%d), want (%d,%d)", arity, op, h, c, refOrder[key], ref[key])
				}
			case 2: // Get
				v, ok := kc.Get(tu, nil)
				rv, rok := ref[key]
				if ok != rok || v != rv {
					t.Fatalf("arity %d op %d: Get = (%d,%v), want (%d,%v)", arity, op, v, ok, rv, rok)
				}
			}
		}
		if kc.Len() != len(ref) {
			t.Fatalf("arity %d: Len = %d, want %d", arity, kc.Len(), len(ref))
		}
		// Every key must be found at its insertion rank, holding its value.
		for key, rank := range refOrder {
			if h, ok := kc.Lookup(keys[key], nil); !ok || h != rank {
				t.Fatalf("arity %d: Lookup = (%d,%v), want handle %d", arity, h, ok, rank)
			}
			if kc.At(rank) != ref[key] {
				t.Fatalf("arity %d: At(%d) = %d, want %d", arity, rank, kc.At(rank), ref[key])
			}
		}
	}
}

// TestKeyCounterMatchesReference runs the equivalence property on
// several seeds with a healthy hash.
func TestKeyCounterMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		checkCounterAgainstReference(t, seed, 0)
	}
}

// TestKeyCounterForcedCollisions degrades the hash to 2 bits (every
// table sees constant collision chains), proving correctness rests on
// the exact tuple-equality verification, not on fingerprint quality.
func TestKeyCounterForcedCollisions(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		checkCounterAgainstReference(t, seed, 0x3)
	}
	// Near-total degradation: a 1-bit hash puts every tuple on one of
	// two collision chains.
	func() {
		r := rand.New(rand.NewSource(7))
		kc := NewKeyCounter(2, 0)
		kc.kt.degradeMask = 1
		ref := make(map[string]int)
		for i := 0; i < 500; i++ {
			tu := randTuple(r, 2)
			kc.Add(tu, nil, 1)
			ref[TupleKey(tu)]++
		}
		for k, v := range ref {
			var tu Tuple
			for i := 0; i < len(k); i += 8 {
				var u uint64
				for b := 0; b < 8; b++ {
					u = u<<8 | uint64(k[i+b])
				}
				tu = append(tu, Value(u))
			}
			if got, ok := kc.Get(tu, nil); !ok || got != v {
				t.Fatalf("1-bit hash: Get = (%d,%v), want (%d,true)", got, ok, v)
			}
		}
	}()
}

// TestKeySetProjMatchesReference checks projected membership against
// materialized projections under a degraded hash.
func TestKeySetProjMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const arity, width = 3, 6
	proj := []int{4, 0, 2} // projection positions inside a width-6 tuple
	set := NewKeySet(arity, 0)
	set.kt.degradeMask = 0x7
	ref := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		wide := randTuple(r, width)
		narrow := Tuple{wide[proj[0]], wide[proj[1]], wide[proj[2]]}
		if r.Intn(2) == 0 {
			set.InsertProj(wide, proj)
			ref[TupleKey(narrow)] = true
		} else {
			if got, want := set.ContainsProj(wide, proj), ref[TupleKey(narrow)]; got != want {
				t.Fatalf("op %d: ContainsProj = %v, want %v", i, got, want)
			}
			if got, want := set.Contains(narrow), ref[TupleKey(narrow)]; got != want {
				t.Fatalf("op %d: Contains = %v, want %v", i, got, want)
			}
		}
	}
	if set.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", set.Len(), len(ref))
	}
}

// FuzzKeyCounter feeds arbitrary byte streams as tuple/op sequences
// through the counter and the TupleKey reference map.
func FuzzKeyCounter(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 1, 255, 2, 255, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const arity = 2
		kc := NewKeyCounter(arity, 0)
		kc.kt.degradeMask = 0xf // keep collisions frequent
		ref := make(map[string]int)
		for i := 0; i+arity < len(data); i += arity + 1 {
			tu := Tuple{Value(int8(data[i])), Value(int8(data[i+1]))}
			key := TupleKey(tu)
			switch data[i+arity] % 3 {
			case 0:
				kc.Add(tu, nil, int(data[i+arity]))
				ref[key] += int(data[i+arity])
			case 1:
				kc.Add(tu, nil, 1)
				ref[key]++
			case 2:
				v, ok := kc.Get(tu, nil)
				rv, rok := ref[key]
				if ok != rok || v != rv {
					t.Fatalf("Get = (%d,%v), want (%d,%v)", v, ok, rv, rok)
				}
			}
		}
		if kc.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", kc.Len(), len(ref))
		}
	})
}

// TestConcurrentFirstIndexUse builds a relation's index from many
// goroutines at once; under -race it verifies the atomic exactly-once
// publish in Relation.Index.
func TestConcurrentFirstIndexUse(t *testing.T) {
	r := New("R", NewSchema("a", "b"))
	for i := 0; i < 1000; i++ {
		r.AppendValues(Value(i%17), Value(i))
	}
	var wg sync.WaitGroup
	bad := make([]bool, 8)
	for w := range bad {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 0; v < 17; v++ {
				if d := r.Degree(0, Value(v)); d < 58 || d > 59 {
					bad[w] = true
				}
			}
		}(w)
	}
	wg.Wait()
	for w, b := range bad {
		if b {
			t.Fatalf("worker %d saw wrong degrees", w)
		}
	}
}
