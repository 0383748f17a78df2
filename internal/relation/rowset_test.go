package relation

import (
	"math/rand"
	"testing"
)

// liveTally counts a two-column relation's live rows by value.
func liveTally(r *Relation) map[[2]Value]int {
	out := map[[2]Value]int{}
	for _, t := range r.Tuples() {
		out[[2]Value{t[0], t[1]}]++
	}
	return out
}

// TestRowSetMatchesReference checks a base row set and a delta row set
// against live-row tallies, with a whole and a degraded fingerprint
// (every tag equal), rows repeating and deletes landing in both sets:
// through the newer view the two sets count exactly the live rows of
// each value, plain and through a projection of a wider tuple, while
// the base still answers as of the older view it was built over.
func TestRowSetMatchesReference(t *testing.T) {
	for _, mask := range []uint64{0, 0x3} {
		r := New("R", NewSchema("a", "b"))
		r.SetHashDegradeForTest(mask)
		rnd := rand.New(rand.NewSource(int64(mask) + 1))
		mutate := func(appends, deletes int) {
			for i := 0; i < appends; i++ {
				r.AppendValues(Value(rnd.Intn(6)), Value(rnd.Intn(3)))
			}
			for i := 0; i < deletes; i++ {
				r.Delete(rnd.Intn(r.Len()))
			}
		}
		mutate(200, 30)
		old := r.Pin()
		base, oldWant := NewRowSet(old, 0), liveTally(r)
		if base.Len() != r.LiveLen() || base.Bytes() != int64(setSlots(r.LiveLen()))*8 {
			t.Fatalf("mask %#x: base holds %d rows in %d bytes for %d live rows", mask, base.Len(), base.Bytes(), r.LiveLen())
		}
		mutate(50, 30)
		v, tail, ok := r.PinSince(old.Version())
		if !ok || len(tail) != int(v.Version()-old.Version()) {
			t.Fatalf("mask %#x: PinSince gave %d mutations (ok %v) for versions %d..%d", mask, len(tail), ok, old.Version(), v.Version())
		}
		delta, want := NewRowSet(v, old.Rows()), liveTally(r)
		proj := []int{2, 0} // (a, b) read from a wide (b, -, a)
		for a := Value(-1); a <= 6; a++ {
			for b := Value(-1); b <= 3; b++ {
				tu, wide, k := Tuple{a, b}, Tuple{b, 99, a}, [2]Value{a, b}
				if got := base.Count(v, tu, nil) + delta.Count(v, tu, nil); got != want[k] {
					t.Fatalf("mask %#x: count(%v) = %d, live rows %d", mask, tu, got, want[k])
				}
				if got := base.Has(v, wide, proj) || delta.Has(v, wide, proj); got != (want[k] > 0) {
					t.Fatalf("mask %#x: projected has(%v) = %v, live rows %d", mask, tu, got, want[k])
				}
				if got := base.Count(old, tu, nil); got != oldWant[k] {
					t.Fatalf("mask %#x: count(%v) through the older view = %d, live rows then %d", mask, tu, got, oldWant[k])
				}
			}
		}
	}
	var none *RowSet
	if none.Has(View{}, Tuple{1, 1}, nil) || none.Count(View{}, Tuple{1, 1}, nil) != 0 || none.Len() != 0 || none.Bytes() != 0 {
		t.Fatal("a nil row set must hold nothing")
	}
}

// TestStorageStatsIndexBytes: StorageStats reports bytes for each built
// index — at least a row id per live row — and none for the others.
func TestStorageStatsIndexBytes(t *testing.T) {
	r := New("R", NewSchema("a", "b"))
	for i := 0; i < 500; i++ {
		r.AppendValues(Value(i%7), Value(i))
	}
	r.Index(0)
	st := r.StorageStats()
	if !st.Indexed[0] || st.Indexed[1] || st.IndexBytes[0] < 500*8 || st.IndexBytes[1] != 0 {
		t.Fatalf("indexed %v, index bytes %v; want attribute 0 alone, at least %d bytes", st.Indexed, st.IndexBytes, 500*8)
	}
}
