package join

import (
	"testing"

	"sampleunion/internal/relation"
)

func selFixture(t *testing.T) *Join {
	t.Helper()
	r1 := relation.MustFromTuples("R1", relation.NewSchema("A", "X"), []relation.Tuple{
		{1, 100}, {2, 200}, {3, 300},
	})
	r2 := relation.MustFromTuples("R2", relation.NewSchema("A", "B"), []relation.Tuple{
		{1, 10}, {1, 11}, {2, 10}, {3, 12},
	})
	j, err := NewChain("J", []*relation.Relation{r1, r2}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestPushDownFiltersResults(t *testing.T) {
	j := selFixture(t)
	// σ(X >= 200): keeps A in {2,3}.
	fj, err := PushDown(j, relation.Cmp{Attr: "X", Op: relation.GE, Val: 200})
	if err != nil {
		t.Fatalf("PushDown: %v", err)
	}
	if fj.Count() != 2 { // (2,200,10) and (3,300,12)
		t.Fatalf("filtered count = %d, want 2", fj.Count())
	}
	// Original join untouched.
	if j.Count() != 4 {
		t.Fatalf("original count changed: %d", j.Count())
	}
	s := fj.OutputSchema()
	fj.Enumerate(func(tu relation.Tuple) bool {
		if tu[s.Index("X")] < 200 {
			t.Errorf("pushdown leaked %v", tu)
		}
		return true
	})
}

func TestPushDownAppliesToEveryHolder(t *testing.T) {
	j := selFixture(t)
	// A appears in both relations: the filter shrinks both sides.
	fj, err := PushDown(j, relation.Cmp{Attr: "A", Op: relation.EQ, Val: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fj.Count() != 2 { // (1,100,10), (1,100,11)
		t.Fatalf("count = %d, want 2", fj.Count())
	}
	nodes := fj.Nodes()
	if nodes[0].Rel.Len() != 1 || nodes[1].Rel.Len() != 2 {
		t.Errorf("relations not filtered: %d, %d", nodes[0].Rel.Len(), nodes[1].Rel.Len())
	}
}

func TestPushDownComposite(t *testing.T) {
	j := selFixture(t)
	fj, err := PushDown(j,
		relation.And{
			relation.Cmp{Attr: "A", Op: relation.LE, Val: 2},
			relation.Cmp{Attr: "B", Op: relation.EQ, Val: 10},
		})
	if err != nil {
		t.Fatal(err)
	}
	// The And references A and B, both in R2: applied there. R1 lacks B,
	// so R1 is not filtered, but the join handles it.
	if fj.Count() != 2 { // (1,100,10), (2,200,10)
		t.Fatalf("count = %d, want 2", fj.Count())
	}
}

func TestPushDownUnplaceablePredicate(t *testing.T) {
	j := selFixture(t)
	// X and B never share a relation: cannot push down.
	_, err := PushDown(j, relation.And{
		relation.Cmp{Attr: "X", Op: relation.GT, Val: 0},
		relation.Cmp{Attr: "B", Op: relation.GT, Val: 0},
	})
	if err == nil {
		t.Fatal("cross-relation predicate pushed down")
	}
}

func TestPushDownNoPredicates(t *testing.T) {
	j := selFixture(t)
	fj, err := PushDown(j)
	if err != nil {
		t.Fatal(err)
	}
	if fj != j {
		t.Error("empty pushdown should return the join unchanged")
	}
}

func TestPushDownCyclic(t *testing.T) {
	r := relation.MustFromTuples("R", relation.NewSchema("A", "B"), []relation.Tuple{
		{1, 10}, {2, 11},
	})
	s := relation.MustFromTuples("S", relation.NewSchema("B", "C"), []relation.Tuple{
		{10, 100}, {11, 101},
	})
	u := relation.MustFromTuples("T", relation.NewSchema("C", "A"), []relation.Tuple{
		{100, 1}, {101, 2},
	})
	j, err := NewCyclic("tri", []*relation.Relation{r, s, u},
		[]Edge{{0, 1, "B"}, {1, 2, "C"}, {2, 0, "A"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Count() != 2 {
		t.Fatalf("base count = %d", j.Count())
	}
	fj, err := PushDown(j, relation.Cmp{Attr: "A", Op: relation.EQ, Val: 1})
	if err != nil {
		t.Fatalf("cyclic pushdown: %v", err)
	}
	if fj.Count() != 1 {
		t.Fatalf("filtered cyclic count = %d, want 1", fj.Count())
	}
	res := execute(fj)
	sch := fj.OutputSchema()
	if len(res) != 1 || res[0][sch.Index("A")] != 1 {
		t.Errorf("wrong filtered result %v", res)
	}
	if !fj.Contains(res[0]) {
		t.Error("filtered cyclic Contains broken")
	}
}

func TestPredicateAttrs(t *testing.T) {
	attrs, err := predicateAttrs(relation.Or{
		relation.Cmp{Attr: "A", Op: relation.EQ, Val: 1},
		relation.Not{P: relation.NewIn("B", 1, 2)},
		relation.True{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 || attrs[0] != "A" || attrs[1] != "B" {
		t.Errorf("attrs = %v", attrs)
	}
	type weird struct{ relation.True }
	if _, err := predicateAttrs(weird{}); err == nil {
		t.Error("unknown predicate type accepted")
	}
}
