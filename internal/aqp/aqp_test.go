package aqp

import (
	"math"
	"testing"

	"sampleunion/internal/relation"
	"sampleunion/internal/rng"
)

// population builds a synthetic "union": values 0..999 with attribute
// v = i and flag = i%2.
func population() ([]relation.Tuple, *relation.Schema) {
	s := relation.NewSchema("v", "flag")
	pop := make([]relation.Tuple, 1000)
	for i := range pop {
		pop[i] = relation.Tuple{relation.Value(i), relation.Value(i % 2)}
	}
	return pop, s
}

// draw samples uniformly with replacement from the population.
func draw(pop []relation.Tuple, n int, seed int64) []relation.Tuple {
	g := rng.New(seed)
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = pop[g.Intn(len(pop))]
	}
	return out
}

func TestCountAccuracy(t *testing.T) {
	pop, s := population()
	samples := draw(pop, 20000, 1)
	pred := relation.Cmp{Attr: "flag", Op: relation.EQ, Val: 1}
	res, err := Count(samples, s, pred, float64(len(pop)), 1.96)
	if err != nil {
		t.Fatal(err)
	}
	truth := 500.0
	if math.Abs(res.Value-truth) > 3*res.HalfWidth+1e-9 {
		t.Fatalf("COUNT = %v, truth %.0f", res, truth)
	}
	lo, hi := res.Interval()
	if !(lo < truth && truth < hi) && math.Abs(res.Value-truth) > res.HalfWidth {
		t.Logf("interval missed (expected ~5%% of the time): %v", res)
	}
	if res.N != 20000 {
		t.Errorf("N = %d", res.N)
	}
}

func TestSumAccuracy(t *testing.T) {
	pop, s := population()
	samples := draw(pop, 20000, 2)
	res, err := Sum(samples, s, "v", relation.True{}, float64(len(pop)), 1.96)
	if err != nil {
		t.Fatal(err)
	}
	truth := 999.0 * 1000 / 2 // Σ 0..999
	if math.Abs(res.Value-truth) > 3*res.HalfWidth {
		t.Fatalf("SUM = %v, truth %.0f", res, truth)
	}
}

func TestSumWithPredicate(t *testing.T) {
	pop, s := population()
	samples := draw(pop, 30000, 3)
	pred := relation.Cmp{Attr: "v", Op: relation.LT, Val: 100}
	res, err := Sum(samples, s, "v", pred, float64(len(pop)), 1.96)
	if err != nil {
		t.Fatal(err)
	}
	truth := 99.0 * 100 / 2
	if math.Abs(res.Value-truth) > 4*res.HalfWidth {
		t.Fatalf("conditional SUM = %v, truth %.0f", res, truth)
	}
}

func TestAvgAccuracy(t *testing.T) {
	pop, s := population()
	samples := draw(pop, 20000, 4)
	pred := relation.Cmp{Attr: "flag", Op: relation.EQ, Val: 0}
	res, err := Avg(samples, s, "v", pred, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	truth := 499.0 // mean of even numbers 0..998
	if math.Abs(res.Value-truth) > 3*res.HalfWidth {
		t.Fatalf("AVG = %v, truth %.0f", res, truth)
	}
	if res.N >= 20000 || res.N == 0 {
		t.Errorf("conditional N = %d", res.N)
	}
}

func TestHalfWidthShrinksWithN(t *testing.T) {
	pop, s := population()
	small, _ := Sum(draw(pop, 500, 5), s, "v", relation.True{}, 1000, 1.96)
	big, _ := Sum(draw(pop, 50000, 5), s, "v", relation.True{}, 1000, 1.96)
	if !(big.HalfWidth < small.HalfWidth) {
		t.Fatalf("half width did not shrink: %f -> %f", small.HalfWidth, big.HalfWidth)
	}
}

func TestErrorCases(t *testing.T) {
	_, s := population()
	if _, err := Count(nil, s, relation.True{}, 10, 1.96); err == nil {
		t.Error("empty Count accepted")
	}
	if _, err := Sum(nil, s, "v", relation.True{}, 10, 1.96); err == nil {
		t.Error("empty Sum accepted")
	}
	samples := []relation.Tuple{{1, 0}}
	if _, err := Sum(samples, s, "bogus", relation.True{}, 10, 1.96); err == nil {
		t.Error("unknown attribute accepted in Sum")
	}
	if _, err := Avg(samples, s, "bogus", relation.True{}, 1.96); err == nil {
		t.Error("unknown attribute accepted in Avg")
	}
	never := relation.Cmp{Attr: "v", Op: relation.GT, Val: 10}
	if _, err := Avg(samples, s, "v", never, 1.96); err == nil {
		t.Error("Avg over empty support accepted")
	}
}

// TestCountDegenerateEdges regresses the zero-half-width bug: with
// hits == 0 or hits == n the binomial SE degenerates to 0, and the old
// Wald-only interval claimed certainty from a finite sample. The
// Wilson floor must keep the interval open at both edges, at about the
// rule-of-three scale (3/n at 95%), and must cover plausible truths.
func TestCountDegenerateEdges(t *testing.T) {
	pop, s := population()
	const n = 2000
	unionSize := float64(len(pop))
	samples := draw(pop, n, 6)

	never := relation.Cmp{Attr: "v", Op: relation.GE, Val: relation.Value(len(pop))}
	always := relation.True{}

	zero, err := Count(samples, s, never, unionSize, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Value != 0 {
		t.Fatalf("hits==0: estimate %v, want 0", zero.Value)
	}
	if zero.HalfWidth <= 0 {
		t.Fatalf("hits==0: half-width %v, want > 0 (zero claims certainty)", zero.HalfWidth)
	}
	// Rule-of-three scale: upper bound ≈ z²/n · |U|, and not orders
	// of magnitude wider.
	ruleOfThree := 3.0 / float64(n) * unionSize
	if _, hi := zero.Interval(); hi < ruleOfThree || hi > 3*ruleOfThree {
		t.Fatalf("hits==0: upper bound %v, want within [%v, %v]", hi, ruleOfThree, 3*ruleOfThree)
	}

	full, err := Count(samples, s, always, unionSize, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if full.Value != unionSize {
		t.Fatalf("hits==n: estimate %v, want %v", full.Value, unionSize)
	}
	if full.HalfWidth <= 0 {
		t.Fatalf("hits==n: half-width %v, want > 0", full.HalfWidth)
	}
	if lo, _ := full.Interval(); lo > unionSize-ruleOfThree/3 || lo < unionSize-3*ruleOfThree {
		t.Fatalf("hits==n: lower bound %v, want just below %v", lo, unionSize)
	}

	// Non-degenerate counts keep (at least) the Wald width.
	mid, err := Count(samples, s, relation.Cmp{Attr: "flag", Op: relation.EQ, Val: 1}, unionSize, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	p := float64(0)
	for _, tp := range samples {
		if tp[1] == 1 {
			p++
		}
	}
	p /= float64(n)
	wald := unionSize * 1.96 * math.Sqrt(p*(1-p)/float64(n))
	if mid.HalfWidth < wald-1e-9 {
		t.Fatalf("mid-range half-width %v narrower than Wald %v", mid.HalfWidth, wald)
	}
}

// TestGroupCountDegenerateEdge regresses GroupCount's analogue of the
// Count bug: a group holding every sample (p == 1) must not claim a
// zero-width interval.
func TestGroupCountDegenerateEdge(t *testing.T) {
	s := relation.NewSchema("v", "g")
	samples := make([]relation.Tuple, 500)
	for i := range samples {
		samples[i] = relation.Tuple{relation.Value(i), relation.Value(7)} // single group
	}
	groups, err := GroupCount(samples, s, "g", 1000, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("%d groups, want 1", len(groups))
	}
	g := groups[0]
	if g.Key != 7 || g.Count.Value != 1000 {
		t.Fatalf("group %+v, want key 7 value 1000", g)
	}
	if g.Count.HalfWidth <= 0 {
		t.Fatalf("full-sample group has zero half-width: %+v", g.Count)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Value: 10, HalfWidth: 2, N: 5}
	if r.String() == "" {
		t.Error("empty render")
	}
	lo, hi := r.Interval()
	if lo != 8 || hi != 12 {
		t.Errorf("interval = [%f, %f]", lo, hi)
	}
}

// TestCountIntervalWithinUnion: a count's interval is Value ± HalfWidth
// clamped to [0, |U|], at both edges and for a group holding every
// sample, while Value and HalfWidth keep their unclamped widths; a sum,
// which may be negative, is not clamped.
func TestCountIntervalWithinUnion(t *testing.T) {
	pop, s := population()
	const unionSize = 1000.0
	samples := draw(pop, 200, 3)
	never := relation.Cmp{Attr: "v", Op: relation.LT, Val: 0}
	zero, err := Count(samples, s, never, unionSize, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := zero.Interval(); lo != 0 || hi != zero.HalfWidth || zero.Value != 0 || zero.HalfWidth <= 0 {
		t.Fatalf("no hits: %v, interval [%v, %v]; want [0, %v]", zero, lo, hi, zero.HalfWidth)
	}
	full, err := Count(samples, s, relation.True{}, unionSize, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := full.Interval(); hi != unionSize || lo != unionSize-full.HalfWidth {
		t.Fatalf("every sample a hit: %v, interval [%v, %v]; want [%v, %v]", full, lo, hi, unionSize-full.HalfWidth, unionSize)
	}
	for i := range samples {
		samples[i] = relation.Tuple{samples[i][0], 7}
	}
	groups, err := GroupCount(samples, s, "flag", unionSize, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if _, hi := groups[0].Count.Interval(); len(groups) != 1 || hi != unionSize {
		t.Fatalf("one group: %+v, upper bound %v; want %v", groups, hi, unionSize)
	}
	shifted := make([]relation.Tuple, len(samples))
	for i, tu := range samples {
		shifted[i] = relation.Tuple{tu[0] - 500, tu[1]}
	}
	sum, err := Sum(shifted, s, "v", relation.True{}, unionSize, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := sum.Interval(); lo != sum.Value-sum.HalfWidth || hi != sum.Value+sum.HalfWidth || lo >= 0 {
		t.Fatalf("sum %v: interval [%v, %v]; want Value ± HalfWidth reaching below 0", sum, lo, hi)
	}
}
