package histest

import (
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/overlap"
	"sampleunion/internal/relation"
)

// cyclicUnion builds a union of a triangle join and an equivalent
// denormalized single-relation join, sharing the output attribute set
// {A, B, C}: the cyclic path of Precompute (residual as an extra
// pseudo-relation) must produce a usable profile.
func cyclicUnion(t *testing.T) []*join.Join {
	t.Helper()
	r := relation.New("R", relation.NewSchema("A", "B"))
	s := relation.New("S", relation.NewSchema("B", "C"))
	u := relation.New("T", relation.NewSchema("C", "A"))
	wide := relation.New("W", relation.NewSchema("A", "B", "C"))
	for i := 0; i < 40; i++ {
		a, b, c := relation.Value(i), relation.Value(i+100), relation.Value(i+200)
		r.AppendValues(a, b)
		s.AppendValues(b, c)
		u.AppendValues(c, a)
		if i < 25 { // overlap: first 25 triangles also in the wide relation
			wide.AppendValues(a, b, c)
		} else {
			wide.AppendValues(a+1000, b+1000, c+1000)
		}
	}
	tri, err := join.NewCyclic("tri", []*relation.Relation{r, s, u},
		[]join.Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := join.NewChain("flat", []*relation.Relation{wide}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return []*join.Join{tri, flat}
}

func TestPrecomputeCyclicResidual(t *testing.T) {
	joins := cyclicUnion(t)
	pre := Precompute(joins[0])
	// The residual counts as one extra pseudo-relation.
	if got := len(pre.rels); got != 3 {
		t.Fatalf("cyclic precompute has %d relations, want 3 (skeleton 2 + residual)", got)
	}
	// Attributes of the residual are reachable in the distance metric.
	for _, pair := range [][2]string{{"A", "B"}, {"B", "C"}, {"A", "C"}} {
		if d := pre.Dist(pair[0], pair[1]); d < 0 {
			t.Errorf("Dist(%s,%s) = %d; residual not wired into the join graph", pair[0], pair[1], d)
		}
	}
}

func TestEstimatorOverCyclicUnion(t *testing.T) {
	joins := cyclicUnion(t)
	est, err := New(joins, Options{Sizes: SizeEW})
	if err != nil {
		t.Fatalf("New over cyclic union: %v", err)
	}
	if est.template == nil {
		t.Error("cyclic union should take the template path")
	}
	tab, err := est.Estimate()
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	exact, _, err := overlap.Exact(joins)
	if err != nil {
		t.Fatal(err)
	}
	if tab.JoinSize(0) != exact.JoinSize(0) || tab.JoinSize(1) != exact.JoinSize(1) {
		t.Errorf("EW sizes = %f, %f; want %f, %f",
			tab.JoinSize(0), tab.JoinSize(1), exact.JoinSize(0), exact.JoinSize(1))
	}
	// Estimated overlap must be positive — the joins share 25 tuples —
	// and bounded by the smaller join after normalization.
	if tab.Get(0b11) <= 0 {
		t.Errorf("cyclic-union overlap estimate %f; want > 0", tab.Get(0b11))
	}
	if tab.Get(0b11) > tab.JoinSize(0)+1e-9 || tab.Get(0b11) > tab.JoinSize(1)+1e-9 {
		t.Errorf("overlap estimate %f exceeds a join size", tab.Get(0b11))
	}
}
