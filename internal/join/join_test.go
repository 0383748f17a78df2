package join

import (
	"sort"
	"testing"

	"sampleunion/internal/relation"
)

// chainFixture builds R1(A,X) ⋈_A R2(A,B) ⋈_B R3(B,Y).
func chainFixture(t *testing.T) *Join {
	t.Helper()
	r1 := relation.MustFromTuples("R1", relation.NewSchema("A", "X"), []relation.Tuple{
		{1, 100}, {2, 200}, {3, 300},
	})
	r2 := relation.MustFromTuples("R2", relation.NewSchema("A", "B"), []relation.Tuple{
		{1, 10}, {1, 11}, {2, 10}, {9, 99},
	})
	r3 := relation.MustFromTuples("R3", relation.NewSchema("B", "Y"), []relation.Tuple{
		{10, 7}, {10, 8}, {11, 9},
	})
	j, err := NewChain("J", []*relation.Relation{r1, r2, r3}, []string{"A", "B"})
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return j
}

// chainResults enumerates the expected results of chainFixture by hand:
// output schema (A, X, B, Y).
func chainExpected() []relation.Tuple {
	return []relation.Tuple{
		{1, 100, 10, 7}, {1, 100, 10, 8}, {1, 100, 11, 9},
		{2, 200, 10, 7}, {2, 200, 10, 8},
	}
}

func sortedKeys(ts []relation.Tuple) []string {
	ks := make([]string, len(ts))
	for i, t := range ts {
		ks[i] = relation.TupleKey(t)
	}
	sort.Strings(ks)
	return ks
}

func TestChainOutputSchema(t *testing.T) {
	j := chainFixture(t)
	want := relation.NewSchema("A", "X", "B", "Y")
	if !j.OutputSchema().Equal(want) {
		t.Fatalf("output schema = %v, want %v", j.OutputSchema(), want)
	}
	if !j.IsChain() {
		t.Error("chain not recognized as chain")
	}
	if j.IsCyclic() {
		t.Error("chain reported cyclic")
	}
}

func TestChainExecute(t *testing.T) {
	j := chainFixture(t)
	got := execute(j)
	want := chainExpected()
	gk, wk := sortedKeys(got), sortedKeys(want)
	if len(gk) != len(wk) {
		t.Fatalf("Enumerate returned %d tuples, want %d: %v", len(gk), len(wk), got)
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("result set mismatch at %d", i)
		}
	}
}

func TestChainCount(t *testing.T) {
	j := chainFixture(t)
	if got := j.Count(); got != int64(len(chainExpected())) {
		t.Fatalf("Count = %d, want %d", got, len(chainExpected()))
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	j := chainFixture(t)
	seen := 0
	j.Enumerate(func(relation.Tuple) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Fatalf("early stop saw %d tuples, want 2", seen)
	}
}

// exactWeights and patchWeights are ExactWeights and PatchWeights over
// fixtures whose weights fit an int64.
func exactWeights(t testing.TB, j *Join) *Weights {
	t.Helper()
	ws, err := j.ExactWeights()
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func patchWeights(t testing.TB, j *Join, prev *Weights) (*Weights, Patch) {
	t.Helper()
	ws, p, err := j.PatchWeights(prev)
	if err != nil {
		t.Fatal(err)
	}
	return ws, p
}

// execute is every result of j, cloned.
func execute(j *Join) []relation.Tuple {
	var out []relation.Tuple
	j.Enumerate(func(t relation.Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out
}

// flatSegment returns entry e's rows and running own sums flat — a
// large segment's blocks one after another, their sums rebased on the
// directories — and its scale.
func flatSegment(t *WeightTable, e int) ([]int32, []int64, int64) {
	rows, cum, scale, seg := t.Segment(e)
	if seg == nil {
		return rows, cum, scale
	}
	var base int64
	for _, grp := range seg.Groups {
		for _, blk := range grp.Blocks {
			rows = append(rows, blk.Rows...)
			for _, c := range blk.Cum {
				cum = append(cum, base+c)
			}
			base += blk.Cum[len(blk.Cum)-1]
		}
	}
	return rows, cum, scale
}

// rowWeights unpacks node k's weight table into one weight per physical
// row (0 for the rows the table drops).
func rowWeights(j *Join, ws *Weights, k int) []int64 {
	w := make([]int64, j.Nodes()[k].Rel.Len())
	t := &ws.Nodes[k]
	for e := 0; e+1 < len(t.Off); e++ {
		rows, cum, scale := flatSegment(t, e)
		prev := int64(0)
		for i, r := range rows {
			w[r] = (cum[i] - prev) * scale
			prev = cum[i]
		}
	}
	return w
}

func TestExactWeights(t *testing.T) {
	j := chainFixture(t)
	ws := exactWeights(t, j)
	// Root R1: row 0 (A=1) extends to 3 results, row 1 (A=2) to 2, row 2 dangles.
	if w := rowWeights(j, ws, 0); w[0] != 3 || w[1] != 2 || w[2] != 0 {
		t.Errorf("root weights = %v, want [3 2 0]", w)
	}
	// R2: (1,10)->2, (1,11)->1, (2,10)->2, (9,99)->0.
	if w := rowWeights(j, ws, 1); w[0] != 2 || w[1] != 1 || w[2] != 2 || w[3] != 0 {
		t.Errorf("R2 weights = %v", w)
	}
	// The leaf's rows weigh 1: it keeps no table, and its total for a
	// value is the value's degree.
	if ws.Nodes[2].Off != nil {
		t.Errorf("leaf R3 holds a weight table")
	}
	for v, want := range map[relation.Value]int64{10: 2, 11: 1, 99: 0} {
		if got := ws.Total(2, v); got != want {
			t.Errorf("leaf total for B=%d is %d, want %d", v, got, want)
		}
	}
	if ws.Count() != 5 {
		t.Errorf("Count = %d, want 5", ws.Count())
	}
}

func TestOlkenBoundDominatesCount(t *testing.T) {
	j := chainFixture(t)
	if b := j.OlkenBound(); b < float64(j.Count()) {
		t.Fatalf("OlkenBound %f < Count %d", b, j.Count())
	}
	// |R1|=3 · M_A(R2)=2 · M_B(R3)=2 = 12.
	if b := j.OlkenBound(); b != 12 {
		t.Fatalf("OlkenBound = %f, want 12", b)
	}
}

func TestContains(t *testing.T) {
	j := chainFixture(t)
	for _, want := range chainExpected() {
		if !j.Contains(want) {
			t.Errorf("Contains(%v) = false for a real result", want)
		}
	}
	for _, not := range []relation.Tuple{
		{3, 300, 10, 7}, // A=3 dangles in R2
		{1, 100, 10, 9}, // (10,9) not in R3
		{1, 101, 10, 7}, // (1,101) not in R1
		{9, 100, 99, 7}, // dangling R2 row
		{0, 0, 0, 0},    // nothing anywhere
	} {
		if j.Contains(not) {
			t.Errorf("Contains(%v) = true for a non-result", not)
		}
	}
}

func TestContainsMatchesEnumerationExhaustively(t *testing.T) {
	j := chainFixture(t)
	inJoin := make(map[string]bool)
	j.Enumerate(func(tu relation.Tuple) bool {
		inJoin[relation.TupleKey(tu)] = true
		return true
	})
	// Try the cross product of plausible values and compare verdicts.
	for _, a := range []relation.Value{1, 2, 3, 9} {
		for _, x := range []relation.Value{100, 200, 300} {
			for _, b := range []relation.Value{10, 11, 99} {
				for _, y := range []relation.Value{7, 8, 9} {
					tu := relation.Tuple{a, x, b, y}
					if got := j.Contains(tu); got != inJoin[relation.TupleKey(tu)] {
						t.Fatalf("Contains(%v) = %v, enumeration says %v", tu, got, !got)
					}
				}
			}
		}
	}
}

// TestContainsAligned: a probe prepared for another attribute order
// answers what Contains answers on the tuple in the join's own order, and
// a schema without one of the join's attributes cannot be probed from.
func TestContainsAligned(t *testing.T) {
	for _, c := range []struct {
		j            *Join
		ext          *relation.Schema
		hits, misses []relation.Tuple
	}{
		{chainFixture(t), relation.NewSchema("Y", "B", "X", "A"),
			[]relation.Tuple{{7, 10, 100, 1}}, []relation.Tuple{{7, 10, 100, 3}}},
	} {
		probe, err := c.j.AlignProbe(c.ext)
		if err != nil {
			t.Fatal(err)
		}
		perm, err := c.j.OutputSchema().Perm(c.ext)
		if err != nil {
			t.Fatal(err)
		}
		check := func(tu relation.Tuple, want bool) {
			own := make(relation.Tuple, len(tu))
			for i, p := range perm {
				own[i] = tu[p]
			}
			if probe.Contains(tu) != want || c.j.Contains(own) != want {
				t.Errorf("%s: probe %v on %v, Contains %v on %v; want %v",
					c.j.Name(), probe.Contains(tu), tu, c.j.Contains(own), own, want)
			}
		}
		for _, tu := range c.hits {
			check(tu, true)
		}
		for _, tu := range c.misses {
			check(tu, false)
		}
		short := relation.NewSchema(c.ext.Attrs()[1:]...)
		if _, err := c.j.AlignProbe(short); err == nil {
			t.Errorf("%s: probe prepared for %v, which lacks an attribute", c.j.Name(), short)
		}
	}
}

// TestOwners: Owner is the first join holding a value, probed through
// each join's own attribute order. After a burst on one join, Reowned from
// the old owner agrees with the data: J1 and J2 values J0 lost move on to
// J1, and J2 values J1 gained move to J1. Unprobed (-1), it is Owner.
func TestOwners(t *testing.T) {
	spans := [][2]int{{0, 60}, {30, 90}, {50, 100}} // J1 lists (W, V)
	var rels []*relation.Relation
	var joins []*Join
	tuple := func(j, v int) relation.Tuple {
		if j == 1 {
			return relation.Tuple{relation.Value(3 * v), relation.Value(v)}
		}
		return relation.Tuple{relation.Value(v), relation.Value(3 * v)}
	}
	for j, sp := range spans {
		schema := relation.NewSchema("V", "W")
		if j == 1 {
			schema = relation.NewSchema("W", "V")
		}
		r := relation.New("R", schema)
		for v := sp[0]; v < sp[1]; v++ {
			r.Append(tuple(j, v))
		}
		jn, err := NewChain("J", []*relation.Relation{r}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rels, joins = append(rels, r), append(joins, jn)
	}
	o, err := NewOwners(joins)
	if err != nil {
		t.Fatal(err)
	}
	first := func(v int) int {
		for j, sp := range spans {
			if v >= sp[0] && v < sp[1] {
				return j
			}
		}
		return -1
	}
	// owners[j][v] is what join j's value v was last found to belong to.
	owners := make([]map[int]int, len(joins))
	probe := func(j int) {
		owners[j] = make(map[int]int)
		for v := spans[j][0]; v < spans[j][1]; v++ {
			if got := o.Owner(j, tuple(j, v)); got != first(v) {
				t.Fatalf("Owner(%d, %d) = %d, want %d", j, v, got, first(v))
			}
			owners[j][v] = first(v)
		}
	}
	for j := range joins {
		probe(j)
	}
	burst := func(dirty []bool) {
		t.Helper()
		for j := range joins {
			if dirty[j] {
				probe(j)
				continue
			}
			for v, was := range owners[j] {
				tu := tuple(j, v)
				got, want := o.Reowned(j, tu, was, dirty), first(v)
				if got != want || o.Reowned(j, tu, -1, dirty) != want {
					t.Fatalf("join %d value %d: Reowned %d from %d, want %d", j, v, got, was, want)
				}
				owners[j][v] = got
			}
		}
	}
	for v := 40; v < 60; v++ {
		rels[0].Delete(v)
	}
	spans[0][1] = 40
	burst([]bool{true, false, false})
	for v := 90; v < 95; v++ {
		rels[1].Append(tuple(1, v))
	}
	spans[1][1] = 95
	burst([]bool{false, true, false})

	other, err := NewChain("X", []*relation.Relation{relation.New("X", relation.NewSchema("V", "Z"))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOwners([]*Join{joins[0], other}); err == nil {
		t.Error("owners prepared over joins with different attributes")
	}
}

func TestTreeJoin(t *testing.T) {
	// Star: center C(K, L, M) with leaves P(K), Q(L), S(M).
	c := relation.MustFromTuples("C", relation.NewSchema("K", "L", "M"), []relation.Tuple{
		{1, 2, 3}, {1, 2, 4}, {5, 6, 7},
	})
	p := relation.MustFromTuples("P", relation.NewSchema("K", "PX"), []relation.Tuple{{1, 0}, {1, 1}})
	q := relation.MustFromTuples("Q", relation.NewSchema("L", "QX"), []relation.Tuple{{2, 0}})
	s := relation.MustFromTuples("S", relation.NewSchema("M", "SX"), []relation.Tuple{{3, 0}, {4, 0}, {7, 0}})
	j, err := NewTree("star", []*relation.Relation{c, p, q, s},
		[]int{-1, 0, 0, 0}, []string{"", "K", "L", "M"})
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	if j.IsChain() {
		t.Error("star join reported as chain")
	}
	// Row (1,2,3): 2 P-matches × 1 Q × 1 S = 4... wait P has 2, Q 1, S 1 -> 2.
	// Row (1,2,4): 2 × 1 × 1 = 2. Row (5,6,7): 0 (no P(5)).
	if got := j.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	res := execute(j)
	if len(res) != 4 {
		t.Fatalf("enumerated %d results, want 4", len(res))
	}
	for _, tu := range res {
		if !j.Contains(tu) {
			t.Errorf("Contains rejects own result %v", tu)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	r1 := relation.MustFromTuples("R1", relation.NewSchema("A"), []relation.Tuple{{1}})
	r2 := relation.MustFromTuples("R2", relation.NewSchema("B"), []relation.Tuple{{1}})
	if _, err := NewChain("J", nil, nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := NewChain("J", []*relation.Relation{r1, r2}, nil); err == nil {
		t.Error("attr count mismatch accepted")
	}
	if _, err := NewChain("J", []*relation.Relation{r1, r2}, []string{"A"}); err == nil {
		t.Error("join attribute missing from R2 accepted")
	}
	if _, err := NewTree("J", []*relation.Relation{r1, r2}, []int{-1, 5}, []string{"", "A"}); err == nil {
		t.Error("out-of-range parent accepted")
	}
	if _, err := NewTree("J", []*relation.Relation{r1}, []int{0}, []string{""}); err == nil {
		t.Error("non-root node 0 accepted")
	}
}

func TestSharedAttrValidation(t *testing.T) {
	// A appears in R1 and R3 but the path edge R2-R3 is on B: equality of
	// A would not propagate, so Build must reject.
	r1 := relation.MustFromTuples("R1", relation.NewSchema("A", "B"), []relation.Tuple{{1, 2}})
	r2 := relation.MustFromTuples("R2", relation.NewSchema("B", "C"), []relation.Tuple{{2, 3}})
	r3 := relation.MustFromTuples("R3", relation.NewSchema("C", "A"), []relation.Tuple{{3, 9}})
	_, err := NewChain("bad", []*relation.Relation{r1, r2, r3}, []string{"B", "C"})
	if err == nil {
		t.Fatal("disconnected shared attribute accepted")
	}
}

func TestSingleRelationJoin(t *testing.T) {
	r := relation.MustFromTuples("R", relation.NewSchema("A", "B"), []relation.Tuple{{1, 2}, {3, 4}})
	j, err := NewChain("single", []*relation.Relation{r}, nil)
	if err != nil {
		t.Fatalf("single-relation chain: %v", err)
	}
	if j.Count() != 2 {
		t.Fatalf("Count = %d, want 2", j.Count())
	}
	if !j.Contains(relation.Tuple{1, 2}) || j.Contains(relation.Tuple{1, 4}) {
		t.Error("single-relation Contains wrong")
	}
}
