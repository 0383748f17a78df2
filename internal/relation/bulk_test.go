package relation

import (
	"reflect"
	"testing"
)

// batchSink records what a MutationSink is told.
type batchSink struct {
	batches [][3]uint64 // version, start, n
	rows    []Tuple
	single  int
}

func (s *batchSink) LogMutation(uint64, Mutation) { s.single++ }

func (s *batchSink) LogAppendBatch(version uint64, start, n int, cols [][]Value, _ string) {
	s.batches = append(s.batches, [3]uint64{version, uint64(start), uint64(n)})
	for i := start; i < start+n; i++ {
		row := make(Tuple, len(cols))
		for a, c := range cols {
			row[a] = c[i]
		}
		s.rows = append(s.rows, row)
	}
}

// liveIndexSeeds are FuzzLiveIndex's seed corpus.
var liveIndexSeeds = []struct {
	ops     []byte
	arity   int
	degrade bool
}{
	{[]byte{0, 1, 2, 3, 4, 0xFF, 0x40, 0x09}, 3, false},
	{[]byte{11, 12, 2, 4, 9, 14, 19, 24, 4}, 2, true},
	{[]byte{1, 101, 2, 102, 3, 103, 4, 104}, 1, false},
}

// TestBulkLoadEqualsAppend: a relation loaded by AppendColumns is the
// relation Append builds row by row — storage, versions, indexes and the
// mutation log a derived structure catches up from — its sink sees the
// batch record AppendRows would have teed, its vectors are the caller's
// (cap == len: a bulk load never regrows), and it takes appends, deletes
// and index catch-up afterwards like any other (FuzzLiveIndex's seeds,
// run over the loaded relation).
func TestBulkLoadEqualsAppend(t *testing.T) {
	for _, seed := range liveIndexSeeds {
		const n = 37
		schema := make([]string, seed.arity)
		cols := make([][]Value, seed.arity)
		for a := range cols {
			schema[a] = string(rune('A' + a))
			cols[a] = make([]Value, n)
			for i := range cols[a] {
				cols[a][i] = Value((i*7+a*3)%11 - 2)
			}
		}
		byRow, bulk := New("live", NewSchema(schema...)), New("live", NewSchema(schema...))
		if seed.degrade {
			byRow.SetHashDegradeForTest(0x7)
			bulk.SetHashDegradeForTest(0x7)
		}
		var rowSink, bulkSink batchSink
		bulk.SetMutationSink(&bulkSink)
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = make(Tuple, seed.arity)
			for a := range cols {
				rows[i][a] = cols[a][i]
			}
			byRow.Append(rows[i])
		}
		viaRows := New("live", NewSchema(schema...))
		viaRows.SetMutationSink(&rowSink)
		viaRows.AppendRows(rows)
		bulk.AppendColumns(cols)

		if !reflect.DeepEqual(bulk.Cols(), byRow.Cols()) {
			t.Fatalf("arity %d: columns differ", seed.arity)
		}
		for a, c := range bulk.Cols() {
			if cap(c) != len(c) || &c[0] != &cols[a][0] {
				t.Errorf("arity %d column %d: len %d cap %d, adopted %v", seed.arity, a, len(c), cap(c), &c[0] == &cols[a][0])
			}
		}
		if bulk.Len() != byRow.Len() || bulk.LiveLen() != byRow.LiveLen() || bulk.Version() != byRow.Version() {
			t.Fatalf("arity %d: Len/LiveLen/Version %d/%d/%d, by row %d/%d/%d", seed.arity,
				bulk.Len(), bulk.LiveLen(), bulk.Version(), byRow.Len(), byRow.LiveLen(), byRow.Version())
		}
		if !reflect.DeepEqual(bulkSink, rowSink) || len(bulkSink.batches) != 1 || bulkSink.batches[0] != [3]uint64{n, 0, n} {
			t.Errorf("arity %d: sink saw %+v, AppendRows tees %+v", seed.arity, bulkSink.batches, rowSink.batches)
		}
		if !reflect.DeepEqual(bulkSink.rows, rows) {
			t.Errorf("arity %d: sink read rows %v", seed.arity, bulkSink.rows)
		}
		for a := 0; a < seed.arity; a++ {
			for v := Value(-3); v <= 9; v++ {
				if got, want := bulk.Index(a).Rows(v), byRow.Index(a).Rows(v); !reflect.DeepEqual(got, want) {
					t.Fatalf("arity %d attr %d value %d: rows %v, by row %v", seed.arity, a, v, got, want)
				}
			}
		}
		// Both logs are on now (an index exists): the same mutation reads
		// the same from either.
		bulk.Append(rows[0])
		byRow.Append(rows[0])
		bulk.Delete(3)
		byRow.Delete(3)
		gotTail, gotTo, gotOK := bulk.MutationsSince(n)
		wantTail, wantTo, wantOK := byRow.MutationsSince(n)
		if !reflect.DeepEqual(gotTail, wantTail) || gotTo != wantTo || gotOK != wantOK || len(gotTail) != 2 {
			t.Errorf("arity %d: MutationsSince = %v %d %v, by row %v %d %v", seed.arity, gotTail, gotTo, gotOK, wantTail, wantTo, wantOK)
		}
		if _, _, ok := bulk.MutationsSince(n - 1); ok {
			t.Errorf("arity %d: the load itself is in the log", seed.arity)
		}
		bulk.SetMutationSink(nil)
		driveLive(t, bulk, seed.ops)

		// A second bulk append onto loaded storage copies and still agrees.
		more := New("live", NewSchema(schema...))
		more.AppendColumns(cols)
		more.AppendColumns(cols)
		if more.Len() != 2*n || more.Version() != 2*n || &more.Cols()[0][0] == &cols[0][0] {
			t.Errorf("arity %d: second bulk append: Len %d Version %d", seed.arity, more.Len(), more.Version())
		}
		checkIndexEquivalence(t, more, -3, 9)
	}
}
