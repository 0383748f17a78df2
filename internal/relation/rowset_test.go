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

// TestRowSetPastCacheCut builds sets just large enough to be filed by
// Slots.putOrdered, over all rows and from a row on, with rows deleted, and
// compares them with sets filed by Put over the same view: both count
// every row's values alike, dead rows and rows before from included,
// and count nothing for 1 000 absent tuples.
func TestRowSetPastCacheCut(t *testing.T) {
	const rows = 230_000
	a, b := make([]Value, rows), make([]Value, rows)
	for i := range a {
		a[i], b[i] = Value(i%40_000), Value(i/40_000%2) // each pair about three times
	}
	r := New("R", NewSchema("a", "b"))
	r.AppendColumns([][]Value{a, b})
	rnd := rand.New(rand.NewSource(1))
	for range rows / 20 {
		r.Delete(rnd.Intn(rows))
	}
	v := r.Pin()
	for _, from := range []int{0, 20_000} {
		n := v.s.live
		if from > 0 {
			n = rows - from
		}
		got := NewRowSet(v, from)
		want := &RowSet{slots: NewSlots(n, 3), mask: ^uint64(0)}
		want.insertFrom(v, from)
		if got.Bytes() <= cacheBytes || got.Len() != want.Len() || got.Bytes() != want.Bytes() {
			t.Fatalf("from %d: filled set holds %d rows in %d bytes, put set %d in %d; want the same, past %d bytes",
				from, got.Len(), got.Bytes(), want.Len(), want.Bytes(), cacheBytes)
		}
		for i := range rows {
			tu := Tuple{a[i], b[i]}
			if g, w := got.Count(v, tu, nil), want.Count(v, tu, nil); g != w {
				t.Fatalf("from %d: row %d %v counts %d, put set %d", from, i, tu, g, w)
			}
		}
		for i := range 1000 {
			tu := Tuple{Value(40_000 + rnd.Intn(1000)), Value(i % 3)}
			if i%2 == 0 {
				tu = Tuple{Value(rnd.Intn(40_000)), Value(2 + i%5)}
			}
			if got.Has(v, tu, nil) || want.Has(v, tu, nil) {
				t.Fatalf("from %d: absent %v found", from, tu)
			}
		}
	}
}
