package relation

import (
	"fmt"
	"testing"
)

// benchSizes are the row counts of UQ1 sf 50's lineitem and of the
// online workload's widest variant, suppcust_v1.
var benchSizes = []int{60_000, 480_000}

// benchRelation returns a relation of n rows of eight columns: column 0
// holds n/80 distinct values, as a join attribute does, and the others
// values that make every row distinct.
func benchRelation(n int) *Relation {
	cols := make([][]Value, 8)
	for a := range cols {
		cols[a] = make([]Value, n)
		for i := range cols[a] {
			cols[a][i] = Value(mix(uint64(i*8+a)) % uint64(n))
		}
	}
	for i := range cols[0] {
		cols[0][i] %= Value(n / 80)
	}
	r := New("bench", NewSchema("a", "b", "c", "d", "e", "f", "g", "h"))
	r.AppendColumns(cols)
	return r
}

// BenchmarkNewRowSet builds a membership set over every row. Past
// cacheBytes of slots (the 480 000-row leg) it files them by Slots.putOrdered.
func BenchmarkNewRowSet(b *testing.B) {
	for _, n := range benchSizes {
		v := benchRelation(n).Pin()
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				NewRowSet(v, 0)
			}
		})
	}
}

// BenchmarkBuildIndex builds the CSR index of the n/80-value column.
func BenchmarkBuildIndex(b *testing.B) {
	for _, n := range benchSizes {
		r := benchRelation(n)
		s := r.snap.Load()
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				buildIndex(s, 0, 0, 0)
			}
		})
	}
}
