package walkest

import (
	"math"
	"testing"

	"sampleunion/internal/join"
	"sampleunion/internal/overlap"
	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// overlappingJoins builds two 2-relation chain joins over shared base
// data so their results overlap substantially.
func overlappingJoins(t *testing.T) []*join.Join {
	t.Helper()
	sa := relation.NewSchema("K", "X")
	sb := relation.NewSchema("K", "Y")
	mk := func(name string, lo, hi int) (*relation.Relation, *relation.Relation) {
		a := relation.New(name+"_a", sa)
		b := relation.New(name+"_b", sb)
		for k := lo; k < hi; k++ {
			a.AppendValues(relation.Value(k), relation.Value(k*10))
			b.AppendValues(relation.Value(k), relation.Value(k*100))
			if k%3 == 0 { // some skew
				b.AppendValues(relation.Value(k), relation.Value(k*100+1))
			}
		}
		return a, b
	}
	a1, b1 := mk("r1", 0, 60)
	a2, b2 := mk("r2", 20, 80) // rows 20..59 shared
	j1, err := join.NewChain("J1", []*relation.Relation{a1, b1}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := join.NewChain("J2", []*relation.Relation{a2, b2}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	return []*join.Join{j1, j2}
}

// scratchFor is one output tuple of the joins' shared attribute set.
func scratchFor(joins []*join.Join) relation.Tuple {
	return make(relation.Tuple, joins[0].OutputSchema().Len())
}

// tupleOf is retained walk i's tuple, rebuilt from its rows.
func tupleOf(je *JoinEstimate, i int) relation.Tuple {
	t := make(relation.Tuple, je.J.OutputSchema().Len())
	je.fill(i, t)
	return t
}

func TestJoinEstimateConvergesToSize(t *testing.T) {
	joins := overlappingJoins(t)
	e, _ := New(joins, Options{})
	je := e.JoinEstimates()[0]
	g := rng.New(1)
	scratch := make(relation.Tuple, joins[0].OutputSchema().Len())
	for i := 0; i < 20000; i++ {
		e.WalkJoin(0, scratch, true, g)
	}
	truth := float64(joins[0].Count())
	if math.Abs(je.Size()-truth)/truth > 0.05 {
		t.Fatalf("HT size = %.1f, truth %.1f", je.Size(), truth)
	}
	if je.Cover() != je.Size() {
		t.Errorf("the first join's cover %.1f is not its size %.1f", je.Cover(), je.Size())
	}
	if je.Walks() != 20000 {
		t.Errorf("Walks = %d", je.Walks())
	}
	if je.coverHalfWidth(1.645) <= 0 {
		t.Errorf("half width = %f", je.coverHalfWidth(1.645))
	}
}

// TestWelfordMatchesDirectVariance: the running moments of both
// observations are the direct mean and sample variance.
func TestWelfordMatchesDirectVariance(t *testing.T) {
	je := &JoinEstimate{}
	vals := []float64{4, 8, 15, 16, 23, 42}
	for i, v := range vals {
		je.observe(v, float64(i%2)*v)
	}
	direct := func(y func(i int) float64) (mean, variance float64) {
		for i := range vals {
			mean += y(i)
		}
		mean /= float64(len(vals))
		for i := range vals {
			variance += (y(i) - mean) * (y(i) - mean)
		}
		return mean, variance / float64(len(vals)-1)
	}
	for name, c := range map[string]struct {
		m moments
		y func(i int) float64
	}{
		"size":  {je.size, func(i int) float64 { return vals[i] }},
		"cover": {je.cover, func(i int) float64 { return float64(i%2) * vals[i] }},
	} {
		mean, variance := direct(c.y)
		if math.Abs(c.m.mean-mean) > 1e-9 || math.Abs(c.m.m2/float64(len(vals)-1)-variance) > 1e-9 {
			t.Errorf("%s: mean %f variance %f, want %f %f", name, c.m.mean, c.m.m2/float64(len(vals)-1), mean, variance)
		}
	}
	if je.Size() != je.size.mean || je.Cover() != je.cover.mean {
		t.Error("Size and Cover do not read the running means")
	}
}

// TestVarianceDegenerate: no walk reads as an infinitely wide interval,
// and equal observations — zero sample variance — never as a zero one:
// the rule-of-three floor keeps ĉ·z·√3/n.
func TestVarianceDegenerate(t *testing.T) {
	je := &JoinEstimate{}
	if !math.IsInf(je.coverHalfWidth(1.645), 1) || !math.IsInf(je.CoverRelHalfWidth(1.645), 1) {
		t.Error("half width of empty estimate finite")
	}
	for n := 1; n <= 64; n++ {
		je.observe(5, 5)
		want := 1.645 * math.Sqrt(3) / float64(n)
		if got := je.CoverRelHalfWidth(1.645); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%d equal observations: relative half-width %v, want the floor's %v", n, got, want)
		}
	}
	zero := &JoinEstimate{}
	zero.observe(5, 0)
	if !math.IsInf(zero.CoverRelHalfWidth(1.645), 1) {
		t.Error("a zero cover estimate has a finite relative half-width")
	}
}

// TestTakeSample: sample reuse takes the pool without replacement, each
// walk with the tuple and p(t) it had when it was walked, whatever was
// taken before it.
func TestTakeSample(t *testing.T) {
	joins := overlappingJoins(t)
	e, _ := New(joins, Options{})
	je := e.JoinEstimates()[0]
	g := rng.New(2)
	var tuples []relation.Tuple
	var ps []float64
	for len(je.Samples()) < 10 {
		tu := scratchFor(joins)
		if s, ok := e.StepJoin(0, tu, g); ok {
			tuples, ps = append(tuples, tu), append(ps, s.P)
		}
	}
	out := scratchFor(joins)
	for len(tuples) > 0 {
		i := g.Intn(len(tuples))
		s := je.TakeSample(i, out)
		if !out.Equal(tuples[i]) || s.P != ps[i] || s.P <= 0 {
			t.Fatalf("TakeSample(%d) returned %v p %v, the walk was %v p %v", i, out, s.P, tuples[i], ps[i])
		}
		last := len(tuples) - 1
		tuples[i], ps[i] = tuples[last], ps[last]
		tuples, ps = tuples[:last], ps[:last]
		if len(je.Samples()) != len(tuples) {
			t.Fatalf("pool size %d, want %d", len(je.Samples()), len(tuples))
		}
	}
}

func TestWarmupRespectsBudgetAndTarget(t *testing.T) {
	joins := overlappingJoins(t)
	e, err := New(joins, Options{MaxWalks: 300, MinWalks: 32, TargetRel: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(3)
	e.Warmup(g)
	for i, je := range e.JoinEstimates() {
		if je.Walks() == 0 || je.Walks() > 300 {
			t.Errorf("join %d walks = %d", i, je.Walks())
		}
	}
}

// TestOverlapEstimateAccuracy: with two joins, the walks' view of their
// overlap is |Ĵ_1| − ĉ_1 — the part of J_1 that J_0 covers — and lands on
// the exact one.
func TestOverlapEstimateAccuracy(t *testing.T) {
	joins := overlappingJoins(t)
	e, err := New(joins, Options{MaxWalks: 8000, TargetRel: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(4)
	e.Warmup(g)
	exact, _, err := overlap.Exact(joins)
	if err != nil {
		t.Fatal(err)
	}
	je := e.JoinEstimates()[1]
	got := je.Size() - je.Cover()
	want := exact.Get(0b11)
	if want == 0 {
		t.Fatal("fixture overlap empty")
	}
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("overlap estimate %.1f, exact %.1f", got, want)
	}
}

// TestTableCloseToExact: sizes, cover sizes and Û = Σ ĉ land near what
// the exact overlap table says.
func TestTableCloseToExact(t *testing.T) {
	joins := overlappingJoins(t)
	e, err := New(joins, Options{MaxWalks: 8000, TargetRel: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	e.Warmup(rng.New(5))
	exact, exactUnion, err := overlap.Exact(joins)
	if err != nil {
		t.Fatal(err)
	}
	cover, u := exact.CoverSizes(), 0.0
	for i, je := range e.JoinEstimates() {
		if truth := exact.JoinSize(i); math.Abs(je.Size()-truth)/truth > 0.1 {
			t.Errorf("size[%d] = %.1f, exact %.1f", i, je.Size(), truth)
		}
		if math.Abs(je.Cover()-cover[i])/cover[i] > 0.15 {
			t.Errorf("cover[%d] = %.1f, exact %.1f", i, je.Cover(), cover[i])
		}
		u += je.Cover()
	}
	if math.Abs(u-float64(exactUnion))/float64(exactUnion) > 0.15 {
		t.Errorf("union estimate %.1f, exact %d", u, exactUnion)
	}
}

func TestConfidenceRange(t *testing.T) {
	joins := overlappingJoins(t)
	e, _ := New(joins, Options{MaxWalks: 2000, TargetRel: 0.02})
	if got := e.Confidence(1.645); got != 0 {
		t.Errorf("confidence before warmup = %f, want 0", got)
	}
	e.Warmup(rng.New(7))
	c := e.Confidence(1.645)
	if c <= 0 || c > 1 {
		t.Fatalf("confidence = %f", c)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("New(nil) succeeded")
	}
}
