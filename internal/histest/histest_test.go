package histest

import (
	"math"
	"testing"
	"testing/quick"

	"sampleunion/internal/join"
	"sampleunion/internal/overlap"
	"sampleunion/internal/relation"
)

// alignedChains builds two 3-relation chain joins with identical
// schemas and controlled data overlap.
func alignedChains(t *testing.T) []*join.Join {
	t.Helper()
	sa := relation.NewSchema("K", "X")
	sb := relation.NewSchema("K", "L")
	sc := relation.NewSchema("L", "Y")
	a1 := relation.MustFromTuples("A1", sa, []relation.Tuple{{1, 10}, {2, 20}, {3, 30}})
	b1 := relation.MustFromTuples("B1", sb, []relation.Tuple{{1, 5}, {2, 5}, {2, 6}, {3, 7}})
	c1 := relation.MustFromTuples("C1", sc, []relation.Tuple{{5, 100}, {6, 101}, {7, 102}})
	a2 := relation.MustFromTuples("A2", sa, []relation.Tuple{{1, 10}, {2, 20}, {4, 40}})
	b2 := relation.MustFromTuples("B2", sb, []relation.Tuple{{1, 5}, {2, 6}, {4, 8}})
	c2 := relation.MustFromTuples("C2", sc, []relation.Tuple{{5, 100}, {6, 101}, {8, 103}})
	j1, err := join.NewChain("J1", []*relation.Relation{a1, b1, c1}, []string{"K", "L"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := join.NewChain("J2", []*relation.Relation{a2, b2, c2}, []string{"K", "L"})
	if err != nil {
		t.Fatal(err)
	}
	return []*join.Join{j1, j2}
}

func TestAlignedChainsDetection(t *testing.T) {
	joins := alignedChains(t)
	if !AlignedChains(joins) {
		t.Fatal("aligned chains not detected")
	}
	if AlignedChains(nil) {
		t.Error("empty slice reported aligned")
	}
	// Different length breaks alignment.
	short, err := join.NewChain("S", []*relation.Relation{joins[0].Nodes()[0].Rel}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if AlignedChains([]*join.Join{joins[0], short}) {
		t.Error("length mismatch reported aligned")
	}
}

func TestProfileFromChain(t *testing.T) {
	joins := alignedChains(t)
	p, err := ProfileFromChain(joins[0])
	if err != nil {
		t.Fatalf("ProfileFromChain: %v", err)
	}
	if len(p.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(p.Entries))
	}
	if p.Entries[0].JoinAttr != "" || p.Entries[1].JoinAttr != "K" || p.Entries[2].JoinAttr != "L" {
		t.Errorf("join attrs wrong: %+v", p.Entries)
	}
	for _, e := range p.Entries {
		if e.Fake || e.PathFactor != 1 {
			t.Errorf("direct profile entry has Fake/PathFactor set: %+v", e)
		}
	}
}

func TestBoundDominatesExactOverlap(t *testing.T) {
	joins := alignedChains(t)
	exact, _, err := overlap.Exact(joins)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := ProfileFromChain(joins[0])
	p2, _ := ProfileFromChain(joins[1])
	bound, err := Bound([]*Profile{p1, p2}, BoundMode)
	if err != nil {
		t.Fatalf("Bound: %v", err)
	}
	if truth := exact.Get(0b11); bound < truth {
		t.Fatalf("Theorem 4 bound %.1f below exact overlap %.1f", bound, truth)
	}
}

// TestBoundUpperBoundProperty drives the Theorem 4 bound with random
// two-relation chains and checks it never undercuts the exact overlap.
func TestBoundUpperBoundProperty(t *testing.T) {
	sa := relation.NewSchema("K", "X")
	sb := relation.NewSchema("K", "Y")
	build := func(keysA, keysB []uint8, name string) (*join.Join, bool) {
		ra := relation.New(name+"_a", sa)
		seen := map[[2]relation.Value]bool{}
		for i, k := range keysA {
			tu := relation.Tuple{relation.Value(k % 8), relation.Value(i % 4)}
			if !seen[[2]relation.Value{tu[0], tu[1]}] {
				seen[[2]relation.Value{tu[0], tu[1]}] = true
				ra.Append(tu)
			}
		}
		rb := relation.New(name+"_b", sb)
		seenB := map[[2]relation.Value]bool{}
		for i, k := range keysB {
			tu := relation.Tuple{relation.Value(k % 8), relation.Value(i % 4)}
			if !seenB[[2]relation.Value{tu[0], tu[1]}] {
				seenB[[2]relation.Value{tu[0], tu[1]}] = true
				rb.Append(tu)
			}
		}
		if ra.Len() == 0 || rb.Len() == 0 {
			return nil, false
		}
		j, err := join.NewChain(name, []*relation.Relation{ra, rb}, []string{"K"})
		if err != nil {
			return nil, false
		}
		return j, true
	}
	f := func(a1, b1, a2, b2 []uint8) bool {
		j1, ok1 := build(a1, b1, "J1")
		j2, ok2 := build(a2, b2, "J2")
		if !ok1 || !ok2 {
			return true // skip degenerate draws
		}
		joins := []*join.Join{j1, j2}
		exact, _, err := overlap.Exact(joins)
		if err != nil {
			return false
		}
		p1, err1 := ProfileFromChain(j1)
		p2, err2 := ProfileFromChain(j2)
		if err1 != nil || err2 != nil {
			return false
		}
		bound, err := Bound([]*Profile{p1, p2}, BoundMode)
		if err != nil {
			return false
		}
		return bound >= exact.Get(0b11)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAvgModeBelowBoundMode(t *testing.T) {
	joins := alignedChains(t)
	p1, _ := ProfileFromChain(joins[0])
	p2, _ := ProfileFromChain(joins[1])
	hi, err := Bound([]*Profile{p1, p2}, BoundMode)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Bound([]*Profile{p1, p2}, AvgMode)
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi+1e-9 {
		t.Fatalf("avg-degree estimate %.2f above max-degree bound %.2f", lo, hi)
	}
}

func TestBoundValidation(t *testing.T) {
	joins := alignedChains(t)
	p1, _ := ProfileFromChain(joins[0])
	if _, err := Bound(nil, BoundMode); err == nil {
		t.Error("empty profile list accepted")
	}
	short, _ := join.NewChain("S", []*relation.Relation{joins[0].Nodes()[0].Rel}, nil)
	ps, _ := ProfileFromChain(short)
	if _, err := Bound([]*Profile{p1, ps}, BoundMode); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSingleRelationBound(t *testing.T) {
	s := relation.NewSchema("A", "B")
	r1 := relation.MustFromTuples("R1", s, []relation.Tuple{{1, 1}, {2, 2}, {3, 3}})
	r2 := relation.MustFromTuples("R2", s, []relation.Tuple{{2, 2}, {3, 3}})
	j1, _ := join.NewChain("J1", []*relation.Relation{r1}, nil)
	j2, _ := join.NewChain("J2", []*relation.Relation{r2}, nil)
	p1, _ := ProfileFromChain(j1)
	p2, _ := ProfileFromChain(j2)
	b, err := Bound([]*Profile{p1, p2}, BoundMode)
	if err != nil {
		t.Fatal(err)
	}
	if b != 2 {
		t.Fatalf("single-relation bound = %f, want min size 2", b)
	}
}

// fig3aJoin reproduces the acyclic join of Fig 3a: ABC ⋈ CD ⋈ {DE, CF}.
func fig3aJoin(t *testing.T) *join.Join {
	t.Helper()
	abc := relation.MustFromTuples("ABC", relation.NewSchema("A", "B", "C"), []relation.Tuple{
		{1, 2, 3}, {4, 5, 6},
	})
	cd := relation.MustFromTuples("CD", relation.NewSchema("C", "D"), []relation.Tuple{
		{3, 7}, {6, 8},
	})
	de := relation.MustFromTuples("DE", relation.NewSchema("D", "E"), []relation.Tuple{
		{7, 9}, {8, 10},
	})
	cf := relation.MustFromTuples("CF", relation.NewSchema("C", "F"), []relation.Tuple{
		{3, 11}, {6, 12},
	})
	j, err := join.NewTree("fig3a", []*relation.Relation{abc, cd, de, cf},
		[]int{-1, 0, 1, 1}, []string{"", "C", "D", "C"})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestTemplateKeepsColocatedAttrsAdjacent(t *testing.T) {
	j := fig3aJoin(t)
	pre := Precompute(j)
	attrs, err := CanonicalAttrs([]*Precomputed{pre})
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := Template([]*Precomputed{pre}, attrs, 0)
	if err != nil {
		t.Fatalf("Template: %v", err)
	}
	if len(tmpl) != 6 {
		t.Fatalf("template = %v", tmpl)
	}
	// A and B are only in ABC: they must be adjacent in a minimum-score
	// template (their score is 0 while any pair through another relation
	// scores >= 1).
	posOf := map[string]int{}
	for i, a := range tmpl {
		posOf[a] = i
	}
	if d := posOf["A"] - posOf["B"]; d != 1 && d != -1 {
		t.Errorf("A and B not adjacent in template %v", tmpl)
	}
}

func TestDistances(t *testing.T) {
	j := fig3aJoin(t)
	pre := Precompute(j)
	cases := []struct {
		a, b string
		want int
	}{
		{"A", "B", 0}, {"A", "C", 0}, {"C", "D", 0},
		{"A", "D", 1}, {"A", "E", 2}, {"E", "F", 2}, {"B", "F", 2},
	}
	for _, c := range cases {
		if got := pre.Dist(c.a, c.b); got != c.want {
			t.Errorf("Dist(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if pre.Dist("A", "ZZZ") != -1 {
		t.Error("missing attribute distance != -1")
	}
}

func TestProfileFromTemplateFakeJoins(t *testing.T) {
	ab := relation.MustFromTuples("AB", relation.NewSchema("A", "B"), []relation.Tuple{{1, 2}})
	bcd := relation.MustFromTuples("BCD", relation.NewSchema("B", "C", "D"), []relation.Tuple{{2, 3, 4}})
	j, err := join.NewChain("J", []*relation.Relation{ab, bcd}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProfileFromTemplate(j, []string{"A", "B", "C", "D"}, nil)
	if err != nil {
		t.Fatalf("ProfileFromTemplate: %v", err)
	}
	if len(p.Entries) != 3 {
		t.Fatalf("entries = %d", len(p.Entries))
	}
	if p.Entries[0].Fake || p.Entries[1].Fake {
		t.Error("pairs from different relations marked fake")
	}
	if !p.Entries[2].Fake {
		t.Error("(C,D) pair from BCD after (B,C) from BCD not marked fake")
	}
}

func TestProfileFromTemplateSynthesized(t *testing.T) {
	// B = 2 has degree 2 in AB, so the C->A path factor exceeds 1.
	ab := relation.MustFromTuples("AB", relation.NewSchema("A", "B"), []relation.Tuple{{1, 2}, {1, 3}, {7, 2}})
	bc := relation.MustFromTuples("BC", relation.NewSchema("B", "C"), []relation.Tuple{{2, 5}, {3, 5}, {3, 6}})
	j, err := join.NewChain("J", []*relation.Relation{ab, bc}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	// Template (A, C, B): pair (A, C) has no single holder.
	p, err := ProfileFromTemplate(j, []string{"A", "C", "B"}, nil)
	if err != nil {
		t.Fatalf("ProfileFromTemplate: %v", err)
	}
	if p.Entries[0].PathFactor <= 1 {
		t.Errorf("synthesized pair path factor = %f, want > 1", p.Entries[0].PathFactor)
	}
}

func TestEstimatorAlignedChains(t *testing.T) {
	joins := alignedChains(t)
	est, err := New(joins, Options{Sizes: SizeEW})
	if err != nil {
		t.Fatal(err)
	}
	if est.TemplateUsed() != nil {
		t.Error("aligned chains took the template path")
	}
	tab, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	exact, exactUnion, err := overlap.Exact(joins)
	if err != nil {
		t.Fatal(err)
	}
	// Singleton sizes are exact under SizeEW.
	for i, j := range joins {
		if tab.JoinSize(i) != float64(j.Count()) {
			t.Errorf("size[%d] = %f, want %d", i, tab.JoinSize(i), j.Count())
		}
	}
	// Overlap bound dominates the truth; union estimate within bounds.
	if tab.Get(0b11) < exact.Get(0b11) {
		t.Errorf("overlap bound %f below exact %f", tab.Get(0b11), exact.Get(0b11))
	}
	u := 0.0 // the union size the sampler draws by: Σ cover
	for _, c := range tab.CoverSizes() {
		u += c
	}
	if u < float64(exactUnion)-1e-9 {
		// An overlap over-estimate shrinks the union estimate; with
		// exact sizes the union may undershoot but never below the
		// largest join.
		if u < tab.JoinSize(0) && u < tab.JoinSize(1) {
			t.Errorf("union estimate %f below both join sizes", u)
		}
	}
}

func TestEstimatorTemplatePath(t *testing.T) {
	// J1: S(K,A) ⋈ T(K,B); J2: denormalized U(K,A,B). Schemas differ, so
	// the estimator must split over a template (the UQ3 situation).
	s := relation.MustFromTuples("S", relation.NewSchema("K", "A"), []relation.Tuple{
		{1, 10}, {2, 20}, {3, 30},
	})
	tt := relation.MustFromTuples("T", relation.NewSchema("K", "B"), []relation.Tuple{
		{1, 100}, {2, 200}, {3, 300},
	})
	u := relation.MustFromTuples("U", relation.NewSchema("K", "A", "B"), []relation.Tuple{
		{1, 10, 100}, {2, 20, 200}, {4, 40, 400},
	})
	j1, err := join.NewChain("J1", []*relation.Relation{s, tt}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := join.NewChain("J2", []*relation.Relation{u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	joins := []*join.Join{j1, j2}
	est, err := New(joins, Options{Sizes: SizeEW})
	if err != nil {
		t.Fatal(err)
	}
	if est.TemplateUsed() == nil {
		t.Error("template path not taken for mismatched schemas")
	}
	tab, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := overlap.Exact(joins)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Get(0b11) < exact.Get(0b11)-1e-9 {
		t.Errorf("split-path overlap bound %f below exact %f", tab.Get(0b11), exact.Get(0b11))
	}
}

func TestEstimatorEOSizesAreBounds(t *testing.T) {
	joins := alignedChains(t)
	est, err := New(joins, Options{Sizes: SizeEO})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := est.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range joins {
		if tab.JoinSize(i) < float64(j.Count()) {
			t.Errorf("EO size bound %f below true size %d", tab.JoinSize(i), j.Count())
		}
	}
}

func TestEstimatorForceSplit(t *testing.T) {
	joins := alignedChains(t)
	est, err := New(joins, Options{Sizes: SizeEW, ForceSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.TemplateUsed() == nil {
		t.Error("ForceSplit did not take the template path")
	}
	if _, err := est.Estimate(); err != nil {
		t.Fatalf("Estimate after ForceSplit: %v", err)
	}
}

func TestGreedyPathCoversAllAttrs(t *testing.T) {
	score := [][]float64{
		{0, 1, 5, 2},
		{1, 0, 1, 9},
		{5, 1, 0, 1},
		{2, 9, 1, 0},
	}
	p := greedyPath(score)
	if len(p) != 4 {
		t.Fatalf("greedy path = %v", p)
	}
	seen := map[int]bool{}
	for _, v := range p {
		if seen[v] {
			t.Fatalf("greedy path revisits %d", v)
		}
		seen[v] = true
	}
}

func TestHeldKarpOptimal(t *testing.T) {
	// Path graph 0-1-2-3 with cheap consecutive edges: optimum is the
	// identity path with cost 3.
	score := [][]float64{
		{0, 1, 10, 10},
		{1, 0, 1, 10},
		{10, 1, 0, 1},
		{10, 10, 1, 0},
	}
	p := heldKarpPath(score)
	cost := 0.0
	for i := 0; i+1 < len(p); i++ {
		cost += score[p[i]][p[i+1]]
	}
	if math.Abs(cost-3) > 1e-9 {
		t.Fatalf("Held-Karp cost = %f via %v, want 3", cost, p)
	}
}
