package relation

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBuildIndexMatchesOracle checks buildIndex against a map from each
// value to its live rows, built by one pass over the column, over random
// columns, tombstones and degraded hashes (every value's hash ANDed with
// the mask, so directory chains grow long): the index's entries come in
// the order the live rows first show their values, each entry holds its
// value's live rows ascending, and Degree, MaxDegree and Distinct are
// exact, for absent values too.
func TestBuildIndexMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := range 240 {
		degrade := []uint64{0, 0x3, 0, 0xff}[trial%4]
		n, domain := rnd.Intn(3000), 1+rnd.Intn(400)
		col, ids := make([]Value, n), make([]Value, n)
		for i := range col {
			col[i], ids[i] = Value(rnd.Intn(domain)-domain/4), Value(i)
		}
		r := New("R", NewSchema("a", "id"))
		r.AppendColumns([][]Value{col, ids})
		for range rnd.Intn(n + 1) {
			r.Delete(rnd.Intn(n))
		}
		s := r.snap.Load()

		var order []Value
		rows := map[Value][]int{}
		maxDeg := 0
		for i, v := range col {
			if !s.isLive(i) {
				continue
			}
			if _, seen := rows[v]; !seen {
				order = append(order, v)
			}
			rows[v] = append(rows[v], i)
			maxDeg = max(maxDeg, len(rows[v]))
		}

		ix := buildIndex(s, 0, 1, degrade)
		if ix.NumEntries() != len(order) || ix.Distinct() != len(order) || ix.MaxDegree() != maxDeg {
			t.Fatalf("trial %d: %d entries, Distinct %d, MaxDegree %d; want %d values, max degree %d",
				trial, ix.NumEntries(), ix.Distinct(), ix.MaxDegree(), len(order), maxDeg)
		}
		e := 0
		ix.EachEntry(func(got []int) {
			v := order[e]
			if ix.ValueAt(e) != v || !slices.IsSorted(got) || !slices.Equal(got, rows[v]) {
				t.Fatalf("trial %d: entry %d holds value %d rows %v; want value %d rows %v", trial, e, ix.ValueAt(e), got, v, rows[v])
			}
			if got, ok := ix.EntryOf(v); !ok || got != e {
				t.Fatalf("trial %d: EntryOf(%d) = %d, %v; want %d", trial, v, got, ok, e)
			}
			e++
		})
		for v := Value(-domain/4 - 2); v < Value(domain+2); v++ {
			if got := ix.Degree(v); got != len(rows[v]) || !slices.Equal(ix.Rows(v), rows[v]) {
				t.Fatalf("trial %d: value %d has degree %d rows %v; want %v", trial, v, got, ix.Rows(v), rows[v])
			}
			if _, ok := ix.EntryOf(v); ok != (len(rows[v]) > 0) {
				t.Fatalf("trial %d: EntryOf(%d) found %v with %d live rows", trial, v, ok, len(rows[v]))
			}
		}
	}
}
