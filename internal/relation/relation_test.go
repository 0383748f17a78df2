package relation

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testSchema() *Schema { return NewSchema("a", "b", "c") }

func testRel(t *testing.T) *Relation {
	t.Helper()
	r, err := FromTuples("R", testSchema(), []Tuple{
		{1, 10, 100},
		{1, 20, 200},
		{2, 10, 300},
		{3, 30, 400},
	})
	if err != nil {
		t.Fatalf("FromTuples: %v", err)
	}
	return r
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.Index("b"); got != 1 {
		t.Errorf("Index(b) = %d, want 1", got)
	}
	if got := s.Index("z"); got != -1 {
		t.Errorf("Index(z) = %d, want -1", got)
	}
	if !s.Has("c") || s.Has("z") {
		t.Errorf("Has misreported: c=%v z=%v", s.Has("c"), s.Has("z"))
	}
	if !s.Equal(NewSchema("a", "b", "c")) {
		t.Error("Equal schemas reported unequal")
	}
	if s.Equal(NewSchema("a", "b")) || s.Equal(NewSchema("a", "c", "b")) {
		t.Error("unequal schemas reported equal")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSchema with duplicate did not panic")
		}
	}()
	NewSchema("a", "a")
}

func TestSchemaProject(t *testing.T) {
	s := testSchema()
	idx, err := s.Project([]string{"c", "a"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if idx[0] != 2 || idx[1] != 0 {
		t.Errorf("Project = %v, want [2 0]", idx)
	}
	if _, err := s.Project([]string{"z"}); err == nil {
		t.Error("Project(z) succeeded, want error")
	}
	// Perm is the projection onto all of s's attributes, and only exists
	// between schemas holding the same ones.
	perm, err := s.Perm(NewSchema("c", "a", "b"))
	if err != nil || len(perm) != 3 || perm[0] != 1 || perm[1] != 2 || perm[2] != 0 {
		t.Errorf("Perm = %v, %v; want [1 2 0]", perm, err)
	}
	if _, err := s.Perm(NewSchema("c", "a")); err == nil {
		t.Error("Perm from a narrower schema succeeded")
	}
	if _, err := s.Perm(NewSchema("c", "a", "z")); err == nil {
		t.Error("Perm from a schema lacking b succeeded")
	}
}

func TestRelationRowsAndValues(t *testing.T) {
	r := testRel(t)
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Arity() != 3 {
		t.Fatalf("Arity = %d, want 3", r.Arity())
	}
	if got := r.Row(2); !got.Equal(Tuple{2, 10, 300}) {
		t.Errorf("Row(2) = %v", got)
	}
	if got := r.Value(3, 1); got != 30 {
		t.Errorf("Value(3,1) = %d, want 30", got)
	}
}

func TestRelationArityError(t *testing.T) {
	if _, err := FromTuples("R", testSchema(), []Tuple{{1, 2}}); err == nil {
		t.Fatal("FromTuples with short row succeeded")
	}
}

func TestIndexAndDegrees(t *testing.T) {
	r := testRel(t)
	idx := r.Index(0)
	if len(idx.Rows(1)) != 2 || len(idx.Rows(2)) != 1 || len(idx.Rows(3)) != 1 {
		t.Errorf("index over a wrong: %v/%v/%v", idx.Rows(1), idx.Rows(2), idx.Rows(3))
	}
	if d := r.Degree(0, 1); d != 2 {
		t.Errorf("Degree(a=1) = %d, want 2", d)
	}
	if d := r.Degree(0, 99); d != 0 {
		t.Errorf("Degree(a=99) = %d, want 0", d)
	}
	if m := r.MaxDegree(1); m != 2 {
		t.Errorf("MaxDegree(b) = %d, want 2 (value 10 twice)", m)
	}
	if c := r.DistinctCount(0); c != 3 {
		t.Errorf("DistinctCount(a) = %d, want 3", c)
	}
}

func TestAppendInvalidatesIndex(t *testing.T) {
	r := testRel(t)
	_ = r.Index(0)
	r.Append(Tuple{1, 99, 999})
	if d := r.Degree(0, 1); d != 3 {
		t.Errorf("Degree after append = %d, want 3", d)
	}
}

func TestFilterProject(t *testing.T) {
	r := testRel(t)
	f := r.Filter("F", Cmp{Attr: "a", Op: EQ, Val: 1})
	if f.Len() != 2 {
		t.Fatalf("Filter len = %d, want 2", f.Len())
	}
	p, err := r.Project("P", []string{"b"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.Len() != 4 {
		t.Fatalf("Project len = %d, want 4 (duplicates kept)", p.Len())
	}
	dp, err := r.DistinctProject("DP", []string{"b"})
	if err != nil {
		t.Fatalf("DistinctProject: %v", err)
	}
	if dp.Len() != 3 {
		t.Fatalf("DistinctProject len = %d, want 3", dp.Len())
	}
}

func TestPredicates(t *testing.T) {
	s := testSchema()
	row := Tuple{5, 10, 15}
	cases := []struct {
		p    Predicate
		want bool
	}{
		{Cmp{"a", EQ, 5}, true},
		{Cmp{"a", NE, 5}, false},
		{Cmp{"b", LT, 11}, true},
		{Cmp{"b", LE, 10}, true},
		{Cmp{"c", GT, 15}, false},
		{Cmp{"c", GE, 15}, true},
		{Cmp{"missing", EQ, 5}, false},
		{And{Cmp{"a", EQ, 5}, Cmp{"b", EQ, 10}}, true},
		{And{Cmp{"a", EQ, 5}, Cmp{"b", EQ, 11}}, false},
		{And{}, true},
		{Or{Cmp{"a", EQ, 6}, Cmp{"b", EQ, 10}}, true},
		{Or{}, false},
		{Not{Cmp{"a", EQ, 5}}, false},
		{True{}, true},
		{NewIn("a", 4, 5, 6), true},
		{NewIn("a", 7), false},
	}
	for _, c := range cases {
		if got := c.p.Eval(row, s); got != c.want {
			t.Errorf("%s on %v = %v, want %v", c.p, row, got, c.want)
		}
	}
}

func TestPredicateStrings(t *testing.T) {
	// Smoke-test String for coverage of the rendering paths.
	ps := []Predicate{
		Cmp{"a", EQ, 1}, Cmp{"a", NE, 1}, Cmp{"a", LT, 1},
		And{Cmp{"a", EQ, 1}, Cmp{"b", GT, 2}}, And{},
		Or{Cmp{"a", EQ, 1}}, Or{},
		Not{True{}}, True{}, NewIn("a", 1, 2),
	}
	for _, p := range ps {
		if p.String() == "" {
			t.Errorf("%T renders empty string", p)
		}
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	a := d.Encode("alpha")
	b := d.Encode("beta")
	if a == b {
		t.Fatal("distinct strings share a value")
	}
	if again := d.Encode("alpha"); again != a {
		t.Errorf("re-encode alpha = %d, want %d", again, a)
	}
	if s, ok := d.Decode(a); !ok || s != "alpha" {
		t.Errorf("Decode(%d) = %q, %v", a, s, ok)
	}
	if _, ok := d.Decode(999); ok {
		t.Error("Decode(999) succeeded")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if ss := d.Strings(); len(ss) != 2 || ss[0] != "alpha" || ss[1] != "beta" {
		t.Errorf("Strings = %v", ss)
	}
}

func TestTupleKeyProperties(t *testing.T) {
	// Property: keys are equal iff tuples are equal (same arity).
	f := func(a, b [3]int64) bool {
		ta := Tuple{Value(a[0]), Value(a[1]), Value(a[2])}
		tb := Tuple{Value(b[0]), Value(b[1]), Value(b[2])}
		return (TupleKey(ta) == TupleKey(tb)) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVerticalSplitLossless(t *testing.T) {
	s := NewSchema("k", "x", "y")
	r := MustFromTuples("R", s, []Tuple{
		{1, 10, 100}, {2, 20, 200}, {3, 20, 300},
	})
	left, right, err := VerticalSplit(r, "L", []string{"k", "x"}, "R2", []string{"k", "y"})
	if err != nil {
		t.Fatalf("VerticalSplit: %v", err)
	}
	if left.Len() != 3 || right.Len() != 3 {
		t.Fatalf("split sizes = %d, %d; want 3, 3", left.Len(), right.Len())
	}
	// Rejoin on k and compare with the original rows.
	joined := make(map[string]bool)
	for i := 0; i < left.Len(); i++ {
		lk := left.Value(i, 0)
		for _, j := range right.Matches(0, lk) {
			tuple := Tuple{lk, left.Value(i, 1), right.Value(j, 1)}
			joined[TupleKey(tuple)] = true
		}
	}
	for i := 0; i < r.Len(); i++ {
		if !joined[TupleKey(r.Row(i))] {
			t.Errorf("row %v lost by split+rejoin", r.Row(i))
		}
	}
	if len(joined) != 3 {
		t.Errorf("rejoin produced %d rows, want 3", len(joined))
	}
}

func TestVerticalSplitErrors(t *testing.T) {
	s := NewSchema("k", "x", "y")
	r := MustFromTuples("R", s, []Tuple{{1, 2, 3}})
	if _, _, err := VerticalSplit(r, "L", []string{"k", "x"}, "R2", []string{"y"}); err == nil {
		t.Error("split without shared attribute succeeded")
	}
	if _, _, err := VerticalSplit(r, "L", []string{"k"}, "R2", []string{"k", "x"}); err == nil {
		t.Error("split dropping an attribute succeeded")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := testRel(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSVDict(&buf, "R", nil)
	if err != nil {
		t.Fatalf("ReadCSVDict: %v", err)
	}
	if back.Len() != r.Len() || !back.Schema().Equal(r.Schema()) {
		t.Fatalf("round trip mismatch: %v vs %v", back, r)
	}
	for i := 0; i < r.Len(); i++ {
		if !back.Row(i).Equal(r.Row(i)) {
			t.Errorf("row %d = %v, want %v", i, back.Row(i), r.Row(i))
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSVDict(bytes.NewReader(nil), "R", nil); err == nil {
		t.Error("empty CSV succeeded")
	}
	bad := "a,b\n1\n"
	if _, err := ReadCSVDict(bytes.NewReader([]byte(bad)), "R", nil); err == nil {
		t.Error("short record succeeded")
	}
	bad2 := "a,b\n1,xyz\n"
	if _, err := ReadCSVDict(bytes.NewReader([]byte(bad2)), "R", nil); err == nil {
		t.Error("non-integer field succeeded")
	}
}
