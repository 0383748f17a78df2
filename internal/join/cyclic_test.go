package join

import (
	"testing"

	"sampleunion/internal/relation"
)

// triangleFixture builds the cyclic join R(A,B) ⋈ S(B,C) ⋈ T(C,A):
// a triangle query. Expected results are triangles (a,b,c).
func triangleFixture(t *testing.T) (*Join, []*relation.Relation, []Edge) {
	t.Helper()
	r := relation.MustFromTuples("R", relation.NewSchema("A", "B"), []relation.Tuple{
		{1, 10}, {1, 11}, {2, 10}, {3, 12},
	})
	s := relation.MustFromTuples("S", relation.NewSchema("B", "C"), []relation.Tuple{
		{10, 100}, {11, 100}, {10, 101}, {12, 102},
	})
	u := relation.MustFromTuples("T", relation.NewSchema("C", "A"), []relation.Tuple{
		{100, 1}, {100, 2}, {101, 1}, {102, 9},
	})
	rels := []*relation.Relation{r, s, u}
	edges := []Edge{{0, 1, "B"}, {1, 2, "C"}, {2, 0, "A"}}
	j, err := NewCyclic("tri", rels, edges, nil)
	if err != nil {
		t.Fatalf("NewCyclic: %v", err)
	}
	return j, rels, edges
}

// triangleExpected computes triangles by brute force nested loops.
func triangleExpected(rels []*relation.Relation) map[string]bool {
	r, s, u := rels[0], rels[1], rels[2]
	out := make(map[string]bool)
	for i := 0; i < r.Len(); i++ {
		a, b := r.Value(i, 0), r.Value(i, 1)
		for k := 0; k < s.Len(); k++ {
			if s.Value(k, 0) != b {
				continue
			}
			c := s.Value(k, 1)
			for m := 0; m < u.Len(); m++ {
				if u.Value(m, 0) == c && u.Value(m, 1) == a {
					out[relation.TupleKey(relation.Tuple{a, b, c})] = true
				}
			}
		}
	}
	return out
}

func TestCyclicMatchesBruteForce(t *testing.T) {
	j, rels, _ := triangleFixture(t)
	if !j.IsCyclic() {
		t.Fatal("triangle not recognized as cyclic")
	}
	want := triangleExpected(rels)
	got := make(map[string]bool)
	j.Enumerate(func(tu relation.Tuple) bool {
		// Reorder output tuple to (A, B, C) regardless of schema order.
		s := j.OutputSchema()
		key := relation.TupleKey(relation.Tuple{
			tu[s.Index("A")], tu[s.Index("B")], tu[s.Index("C")],
		})
		if got[key] {
			t.Errorf("duplicate result %v", tu)
		}
		got[key] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("cyclic join found %d results, brute force %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing triangle %q", k)
		}
	}
	if j.Count() != int64(len(want)) {
		t.Errorf("Count = %d, want %d", j.Count(), len(want))
	}
}

func TestCyclicContains(t *testing.T) {
	j, _, _ := triangleFixture(t)
	results := execute(j)
	if len(results) == 0 {
		t.Fatal("no triangles found")
	}
	for _, tu := range results {
		if !j.Contains(tu) {
			t.Errorf("Contains rejects own result %v", tu)
		}
	}
	s := j.OutputSchema()
	bogus := make(relation.Tuple, s.Len())
	bogus[s.Index("A")] = 3
	bogus[s.Index("B")] = 12
	bogus[s.Index("C")] = 102
	// (3,12,102): R and S rows exist but T(102,3) does not.
	if j.Contains(bogus) {
		t.Error("Contains accepted a non-triangle")
	}
}

func TestCyclicExplicitResidual(t *testing.T) {
	_, rels, edges := triangleFixture(t)
	j, err := NewCyclic("tri2", rels, edges, []int{2})
	if err != nil {
		t.Fatalf("explicit residual: %v", err)
	}
	want := triangleExpected(rels)
	if j.Count() != int64(len(want)) {
		t.Fatalf("Count = %d, want %d", j.Count(), len(want))
	}
	if res := j.ResidualPart(); res == nil {
		t.Fatal("no residual part")
	} else if res.MaxDegree() < 1 {
		t.Errorf("residual max degree = %d", res.MaxDegree())
	}
}

func TestCyclicBadResidual(t *testing.T) {
	_, rels, edges := triangleFixture(t)
	// Removing nothing leaves the cycle: invalid.
	if _, err := NewCyclic("bad", rels, edges, []int{}); err == nil {
		t.Error("empty residual accepted for a cyclic graph")
	}
	// Removing everything is invalid.
	if _, err := NewCyclic("bad", rels, edges, []int{0, 1, 2}); err == nil {
		t.Error("total residual accepted")
	}
}

func TestAcyclicGraphBuildsTreeDirectly(t *testing.T) {
	r := relation.MustFromTuples("R", relation.NewSchema("A", "B"), []relation.Tuple{{1, 2}})
	s := relation.MustFromTuples("S", relation.NewSchema("B", "C"), []relation.Tuple{{2, 3}})
	j, err := NewCyclic("path", []*relation.Relation{r, s}, []Edge{{0, 1, "B"}}, nil)
	if err != nil {
		t.Fatalf("NewCyclic on tree graph: %v", err)
	}
	if j.IsCyclic() {
		t.Error("tree graph produced a residual")
	}
	if j.Count() != 1 {
		t.Errorf("Count = %d, want 1", j.Count())
	}
}

func TestCyclicEdgeValidation(t *testing.T) {
	r := relation.MustFromTuples("R", relation.NewSchema("A"), []relation.Tuple{{1}})
	s := relation.MustFromTuples("S", relation.NewSchema("B"), []relation.Tuple{{2}})
	if _, err := NewCyclic("bad", []*relation.Relation{r, s}, []Edge{{0, 1, "A"}}, nil); err == nil {
		t.Error("edge on attribute missing from one side accepted")
	}
	if _, err := NewCyclic("bad", []*relation.Relation{r, s}, []Edge{{0, 5, "A"}}, nil); err == nil {
		t.Error("edge with out-of-range endpoint accepted")
	}
	if _, err := NewCyclic("bad", nil, nil, nil); err == nil {
		t.Error("empty relation list accepted")
	}
	// Disconnected graph: no edges between two relations.
	if _, err := NewCyclic("bad", []*relation.Relation{r, s}, nil, nil); err == nil {
		t.Error("disconnected graph accepted")
	}
}

// TestFourCycle exercises a 4-cycle: R(A,B) S(B,C) T(C,D) U(D,A).
func TestFourCycle(t *testing.T) {
	r := relation.MustFromTuples("R", relation.NewSchema("A", "B"), []relation.Tuple{{1, 2}, {5, 6}})
	s := relation.MustFromTuples("S", relation.NewSchema("B", "C"), []relation.Tuple{{2, 3}, {6, 7}})
	u := relation.MustFromTuples("T", relation.NewSchema("C", "D"), []relation.Tuple{{3, 4}, {7, 8}})
	v := relation.MustFromTuples("U", relation.NewSchema("D", "A"), []relation.Tuple{{4, 1}, {8, 9}})
	j, err := NewCyclic("four", []*relation.Relation{r, s, u, v},
		[]Edge{{0, 1, "B"}, {1, 2, "C"}, {2, 3, "D"}, {3, 0, "A"}}, nil)
	if err != nil {
		t.Fatalf("NewCyclic: %v", err)
	}
	// Only (1,2,3,4,1) closes the cycle; (5,6,7,8,9) does not (9 != 5).
	if j.Count() != 1 {
		t.Fatalf("Count = %d, want 1", j.Count())
	}
	res := execute(j)
	if len(res) != 1 {
		t.Fatalf("enumerated %d results, want 1", len(res))
	}
	sch := j.OutputSchema()
	got := res[0]
	if got[sch.Index("A")] != 1 || got[sch.Index("D")] != 4 {
		t.Errorf("wrong 4-cycle result %v", got)
	}
}
