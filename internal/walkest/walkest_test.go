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

func TestJoinEstimateConvergesToSize(t *testing.T) {
	joins := overlappingJoins(t)
	je := NewJoinEstimate(joins[0])
	g := rng.New(1)
	scratch := make(relation.Tuple, joins[0].OutputSchema().Len())
	for i := 0; i < 20000; i++ {
		je.Walk(scratch, g)
	}
	truth := float64(joins[0].Count())
	if math.Abs(je.Size()-truth)/truth > 0.05 {
		t.Fatalf("HT size = %.1f, truth %.1f", je.Size(), truth)
	}
	if je.Walks() != 20000 {
		t.Errorf("Walks = %d", je.Walks())
	}
	if je.HalfWidth(1.645) <= 0 {
		t.Errorf("half width = %f", je.HalfWidth(1.645))
	}
}

func TestWelfordMatchesDirectVariance(t *testing.T) {
	je := &JoinEstimate{}
	vals := []float64{4, 8, 15, 16, 23, 42}
	for _, v := range vals {
		je.Observe(v)
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	varSum := 0.0
	for _, v := range vals {
		varSum += (v - mean) * (v - mean)
	}
	wantVar := varSum / float64(len(vals)-1)
	if math.Abs(je.Size()-mean) > 1e-9 {
		t.Errorf("mean = %f, want %f", je.Size(), mean)
	}
	if math.Abs(je.Variance()-wantVar) > 1e-9 {
		t.Errorf("variance = %f, want %f", je.Variance(), wantVar)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	je := &JoinEstimate{}
	if je.Variance() != 0 {
		t.Error("variance of empty estimate nonzero")
	}
	if !math.IsInf(je.HalfWidth(1.645), 1) {
		t.Error("half width of empty estimate finite")
	}
	je.Observe(5)
	if je.Variance() != 0 {
		t.Error("variance of single observation nonzero")
	}
}

func TestTakeSample(t *testing.T) {
	joins := overlappingJoins(t)
	e, _ := New(joins, Options{})
	je := e.JoinEstimates()[0]
	g := rng.New(2)
	for len(je.Samples()) < 10 {
		e.StepJoin(0, g)
	}
	before := len(je.Samples())
	s := je.TakeSample(0)
	if s.Tuple == nil || s.P <= 0 {
		t.Errorf("TakeSample returned %+v", s)
	}
	if len(je.Samples()) != before-1 {
		t.Errorf("pool size %d, want %d", len(je.Samples()), before-1)
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
	got := e.OverlapEstimate(0b11)
	want := exact.Get(0b11)
	if want == 0 {
		t.Fatal("fixture overlap empty")
	}
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("overlap estimate %.1f, exact %.1f", got, want)
	}
}

func TestTableCloseToExact(t *testing.T) {
	joins := overlappingJoins(t)
	e, err := New(joins, Options{MaxWalks: 8000, TargetRel: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(5)
	e.Warmup(g)
	tab, err := e.Table()
	if err != nil {
		t.Fatal(err)
	}
	exact, exactUnion, err := overlap.Exact(joins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range joins {
		truth := exact.JoinSize(i)
		if math.Abs(tab.JoinSize(i)-truth)/truth > 0.1 {
			t.Errorf("size[%d] = %.1f, exact %.1f", i, tab.JoinSize(i), truth)
		}
	}
	u := tab.UnionSize()
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
