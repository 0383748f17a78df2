package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// foreignPred hides a predicate's concrete type, so Filter is checked
// against a Predicate implemented outside this package's built-ins.
type foreignPred struct{ p Predicate }

func (f foreignPred) Eval(t Tuple, s *Schema) bool { return f.p.Eval(t, s) }
func (f foreignPred) String() string               { return "foreign(" + f.p.String() + ")" }

// randValue draws from a small domain plus Null, so equality predicates
// hit often and Null payloads flow through every comparison path.
func randValue(rng *rand.Rand) Value {
	if rng.Intn(8) == 0 {
		return Null
	}
	return Value(rng.Intn(7) - 3)
}

// randPredicate builds a random predicate tree over the given
// attributes (plus, occasionally, an attribute the schema lacks).
// Foreign wrappers appear at any level of the tree.
func randPredicate(rng *rand.Rand, attrs []string, depth int) Predicate {
	attr := func() string {
		if rng.Intn(10) == 0 {
			return "missing"
		}
		return attrs[rng.Intn(len(attrs))]
	}
	var p Predicate
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			p = Cmp{Attr: attr(), Op: CmpOp(rng.Intn(6)), Val: randValue(rng)}
		case 1:
			vals := make([]Value, rng.Intn(4))
			for i := range vals {
				vals[i] = randValue(rng)
			}
			p = NewIn(attr(), vals...)
		default:
			p = True{}
		}
	} else {
		n := rng.Intn(3) + 1
		sub := make([]Predicate, n)
		for i := range sub {
			sub[i] = randPredicate(rng, attrs, depth-1)
		}
		switch rng.Intn(3) {
		case 0:
			p = And(sub)
		case 1:
			p = Or(sub)
		default:
			p = Not{P: sub[0]}
		}
	}
	if rng.Intn(5) == 0 {
		p = foreignPred{p}
	}
	return p
}

// TestFilterProperty pins Filter against a brute-force reference over
// random schemas, rows (Null payloads included), deletions, and
// predicate trees: Filter(p).Tuples() must be, in row order, exactly
// the live rows p.Eval accepts.
func TestFilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		arity := rng.Intn(4) + 1
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = string(rune('a' + i))
		}
		r := New("prop", NewSchema(attrs...))
		n := rng.Intn(200)
		rows := make([]Tuple, n)
		for i := range rows {
			row := make(Tuple, arity)
			for a := range row {
				row[a] = randValue(rng)
			}
			rows[i] = row
		}
		r.AppendRows(rows)
		for i := 0; i < n/5; i++ {
			r.Delete(rng.Intn(n))
		}
		for pi := 0; pi < 5; pi++ {
			pred := randPredicate(rng, attrs, rng.Intn(3))
			var want []Tuple
			for i := 0; i < n; i++ {
				if r.Live(i) && pred.Eval(r.Row(i), r.Schema()) {
					want = append(want, r.Row(i))
				}
			}
			checkFiltered(t, fmt.Sprintf("trial %d pred %s", trial, pred), r.Filter("kept", pred), want)
		}
	}
}

// checkFiltered fails unless got holds exactly the rows of want, in
// order.
func checkFiltered(t *testing.T, what string, got *Relation, want []Tuple) {
	t.Helper()
	rows := got.Tuples()
	if len(rows) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(rows), len(want))
	}
	for k := range rows {
		if !rows[k].Equal(want[k]) {
			t.Fatalf("%s: row %d = %v, want %v", what, k, rows[k], want[k])
		}
	}
}

// tailCapture is one published snapshot pinned mid-stream: the column
// slices as handed out by Cols plus a deep copy of what they held. Later
// appends extend the columns' backing arrays; the capture must never see
// that.
type tailCapture struct {
	cols   [][]Value
	rows   int
	expect [][]Value
}

func capture(r *Relation) tailCapture {
	cols := r.Cols()
	c := tailCapture{cols: cols, rows: r.Len(), expect: make([][]Value, len(cols))}
	for a, col := range cols {
		c.expect[a] = append([]Value(nil), col[:c.rows]...)
	}
	return c
}

func (c tailCapture) check(t *testing.T) {
	t.Helper()
	for a, col := range c.cols {
		if len(col) != c.rows {
			t.Fatalf("captured column %d grew: len %d, want %d", a, len(col), c.rows)
		}
		for i, v := range c.expect[a] {
			if col[i] != v {
				t.Fatalf("captured column %d row %d mutated: %d, want %d", a, i, col[i], v)
			}
		}
	}
}

// driveColumnTail feeds an op stream of single appends, batch appends
// (big enough to force mutation-log compaction), and deletes through a
// relation with a live index, pinning published snapshots along the way.
// It then verifies (1) every pinned snapshot is still byte-identical —
// tail appends must never reach a published prefix — and (2) the final
// contents, Filter output, and degrees match a relation rebuilt from
// scratch.
func driveColumnTail(t *testing.T, ops []byte, arity int) {
	t.Helper()
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = string(rune('a' + i))
	}
	r := New("tail", NewSchema(attrs...))
	r.Index(0) // flips the mutation log on: every op below is logged
	mkRow := func(seed byte) Tuple {
		row := make(Tuple, arity)
		for a := range row {
			row[a] = Value(int(seed+byte(a)*13)%9 - 3)
		}
		return row
	}
	var mirror []Tuple
	var dead []bool
	var pins []tailCapture
	for pc, op := range ops {
		switch op % 4 {
		case 0:
			row := mkRow(op)
			r.Append(row)
			mirror = append(mirror, row)
			dead = append(dead, false)
		case 1: // batch: drives log growth past its bound -> compaction
			n := int(op)%120 + 1
			batch := make([]Tuple, n)
			for i := range batch {
				batch[i] = mkRow(op + byte(i))
			}
			r.AppendRows(batch)
			mirror = append(mirror, batch...)
			dead = append(dead, make([]bool, n)...)
		case 2:
			if len(mirror) > 0 {
				i := (int(op) + pc) % len(mirror)
				if r.Delete(i) != !dead[i] {
					t.Fatalf("op %d: Delete(%d) disagreed with mirror", pc, i)
				}
				dead[i] = true
			}
		case 3:
			pins = append(pins, capture(r))
			r.Index(int(op) % arity) // catch-up over the logged tail
		}
	}
	for _, pin := range pins {
		pin.check(t)
	}

	// Rebuild from scratch and compare live contents in physical order.
	var liveRows []Tuple
	for i, row := range mirror {
		if !dead[i] {
			liveRows = append(liveRows, row)
		}
	}
	fresh := New("rebuilt", r.Schema())
	fresh.AppendRows(liveRows)
	got := r.Tuples()
	if len(got) != len(liveRows) {
		t.Fatalf("%d live tuples, rebuilt has %d", len(got), len(liveRows))
	}
	for i := range got {
		if !got[i].Equal(liveRows[i]) {
			t.Fatalf("live tuple %d = %v, rebuilt %v", i, got[i], liveRows[i])
		}
	}
	pred := Cmp{Attr: attrs[0], Op: GE, Val: 0}
	var kept []Tuple
	for _, row := range liveRows {
		if pred.Eval(row, r.Schema()) {
			kept = append(kept, row)
		}
	}
	checkFiltered(t, "filter", r.Filter("kept", pred), kept)
	checkFiltered(t, "rebuilt filter", fresh.Filter("kept", pred), kept)
	for at := 0; at < arity; at++ {
		for v := Value(-4); v <= 6; v++ {
			if gd, wd := r.Degree(at, v), fresh.Degree(at, v); gd != wd {
				t.Fatalf("attr %d value %d: degree %d, rebuilt %d", at, v, gd, wd)
			}
		}
	}
}

// FuzzColumnTail feeds arbitrary op streams through the column-tail
// driver: a pinned snapshot observing a later append, or any divergence
// from the rebuilt-from-scratch reference, is a finding.
func FuzzColumnTail(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xFF, 0x81, 3, 0}, uint8(2))
	f.Add([]byte{1, 1, 3, 2, 3, 1, 2, 3, 0, 3}, uint8(3))
	f.Add([]byte{5, 125, 3, 250, 3, 6, 2, 3}, uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, arity uint8) {
		a := int(arity)%4 + 1
		if len(ops) > 300 {
			ops = ops[:300]
		}
		driveColumnTail(t, ops, a)
	})
}

// BenchmarkFilter times Filter over an orders-shaped relation (four
// attributes, o_status in 0..2) under UQ3's o_status <= 1 restriction,
// which keeps two rows in three. 12 000 rows is the orders relation of
// UQ3 at sf 20; 600 000 is fifty times that.
func BenchmarkFilter(b *testing.B) {
	for _, rows := range []int{12000, 600000} {
		cols := make([][]Value, 4)
		for a := range cols {
			cols[a] = make([]Value, rows)
		}
		for i := 0; i < rows; i++ {
			cols[0][i] = Value(i)
			cols[1][i] = Value(i * 7 % 1500)
			cols[2][i] = Value(i * 13 % 3)
			cols[3][i] = Value(i * 31 % 100000)
		}
		r := New("orders", NewSchema("orderkey", "custkey", "o_status", "o_totalprice"))
		r.AppendColumns(cols)
		pred := Cmp{Attr: "o_status", Op: LE, Val: 1}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r.Filter("orders_lo", pred).Len() == 0 {
					b.Fatal("empty filter")
				}
			}
		})
	}
}
