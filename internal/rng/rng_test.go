package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged on Uint64")
		}
	}
}

// TestReseedMatchesNew pins the contract recycled runs rest on: after
// Reseed(s) a generator that has already consumed part of another
// stream yields exactly New(s)'s stream, across the draw kinds the

// samplers use.
func TestReseedMatchesNew(t *testing.T) {
	g := New(99)
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for i := 0; i < 37; i++ { // leave g mid-stream
			g.Uint64n(1000)
			g.Float64()
		}
		g.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 10000; i++ {
			switch i % 3 {
			case 0:
				n := uint64(i)*2654435761 + 1
				if a, b := g.Uint64n(n), fresh.Uint64n(n); a != b {
					t.Fatalf("seed %d draw %d: Uint64n %d after Reseed, %d from New", seed, i, a, b)
				}
			case 1:
				if a, b := g.Float64(), fresh.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v after Reseed, %v from New", seed, i, a, b)
				}
			default:
				if a, b := g.Intn(i+1), fresh.Intn(i+1); a != b {
					t.Fatalf("seed %d draw %d: Intn %d after Reseed, %d from New", seed, i, a, b)
				}
			}
		}
	}
}

// TestBorrowMatchesNew: a borrowed generator, whatever stream it was
// returned in the middle of, yields New(seed)'s stream.
func TestBorrowMatchesNew(t *testing.T) {
	for _, seed := range []int64{3, 3, -1, 1 << 50} {
		g := Borrow(seed)
		fresh := New(seed)
		for i := 0; i < 1000; i++ {
			if a, b := g.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: %d borrowed, %d from New", seed, i, a, b)
			}
		}
		g.Intn(7) // returned mid-stream
		Return(g)
	}
}

func TestSplitIndependence(t *testing.T) {
	g := New(7)
	c1 := g.Split()
	c2 := g.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Int63() == c2.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams collide %d/64 times", same)
	}
}

func TestBernoulliEdges(t *testing.T) {
	g := New(1)
	for i := 0; i < 20; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if g.Bernoulli(-0.5) || !g.Bernoulli(1.5) {
			t.Fatal("out-of-range p mishandled")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := New(3)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %.4f", p)
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	g := New(13)
	w := []float64{2, 5, 0, 1, 2}
	a := NewAlias(w)
	if a == nil {
		t.Fatal("NewAlias returned nil")
	}
	if a.Len() != len(w) {
		t.Fatalf("Len = %d", a.Len())
	}
	counts := make([]int, len(w))
	const n = 500000
	for i := 0; i < n; i++ {
		counts[a.Draw(g)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight drawn %d times", counts[2])
	}
	total := 10.0
	for i, wi := range w {
		got := float64(counts[i]) / n
		want := wi / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("alias index %d frequency = %.4f, want %.2f", i, got, want)
		}
	}
}

func TestAliasDegenerate(t *testing.T) {
	if NewAlias(nil) != nil {
		t.Error("NewAlias(nil) non-nil")
	}
	if NewAlias([]float64{0, 0}) != nil {
		t.Error("NewAlias(zeros) non-nil")
	}
	a := NewAlias([]float64{0, 0, 4})
	g := New(17)
	for i := 0; i < 100; i++ {
		if a.Draw(g) != 2 {
			t.Fatal("single-mass alias drew wrong index")
		}
	}
}

// TestUint64nBoundary is the regression test for the weighted-row index
// derivation bug: the old float path int64(Float64()*float64(total))
// rounds up to total when Float64 lands close enough to 1 — the product
// total·(1-2^-53) is exactly total in float64 for any total above a few
// thousand — and loses precision entirely for totals near 2^53. The
// integer bounded draw must stay strictly below n for every n.
func TestUint64nBoundary(t *testing.T) {
	// Demonstrate the float formula's failure at the boundary: above
	// 2^53 the conversion float64(total) collapses adjacent totals, so
	// int64(Float64()*float64(total)) cannot even address every index —
	// with total = 2^53+1 the top index is unreachable (its unit of
	// weight is silently dropped) no matter what Float64 returns.
	const fMax = 1 - 1.0/(1<<53) // max of math/rand Float64
	if float64(1<<53+1) != float64(1<<53) {
		t.Fatal("float64 precision premise broken")
	}
	if x := int64(fMax * float64(int64(1<<53+1))); x >= 1<<53 {
		t.Fatalf("float derivation reached index %d; boundary premise broken", x)
	}
	edges := []uint64{1, 2, 3, 7, 1 << 20, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<64 - 1}
	g := New(23)
	for _, n := range edges {
		for i := 0; i < 2000; i++ {
			if x := g.Uint64n(n); x >= n {
				t.Fatalf("Uint64n(%d) = %d, out of range", n, x)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		if g.Uint64n(1) != 0 {
			t.Fatal("Uint64n(1) != 0")
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	g := New(29)
	const n, draws = 10, 500000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[g.Uint64n(n)]++
	}
	for i, c := range counts {
		got := float64(c) / draws
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("Uint64n(%d) bucket %d frequency = %.4f", n, i, got)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	g := New(31)
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	g.Uint64n(0)
}

// refAlias is the table construction NewAlias replaced:
// a float copy of the weights, a separate scaled column and two int
// worklists. It is kept as the reference the lean build is pinned to.
func refAlias(weights []float64) (prob []float64, alias []int) {
	n := len(weights)
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if n == 0 || total <= 0 {
		return nil, nil
	}
	prob, alias = make([]float64, n), make([]int, n)
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(large, small...) {
		prob[i] = 1
		alias[i] = i
	}
	return prob, alias
}

// TestAliasTablesMatchReference: NewAlias builds, entry for entry, the
// table the reference builds — same worklist pop order — so no seeded
// stream that draws through an alias table moves.
func TestAliasTablesMatchReference(t *testing.T) {
	g := New(99)
	for trial := 0; trial < 300; trial++ {
		n := 1 + g.Intn(200)
		w := make([]float64, n)
		for i := range w {
			switch g.Intn(4) {
			case 0: // zero weights and ties at the mean
			case 1:
				w[i] = 1
			default:
				w[i] = float64(1 + g.Intn(1<<uint(1+g.Intn(40))))
			}
		}
		prob, alias := refAlias(w)
		a := NewAlias(w)
		if (a == nil) != (prob == nil) {
			t.Fatalf("trial %d: nil table %v, reference nil %v", trial, a == nil, prob == nil)
		}
		if a == nil {
			continue
		}
		for i := range prob {
			if a.prob[i] != prob[i] || int(a.alias[i]) != alias[i] {
				t.Fatalf("trial %d entry %d: (%v, %d), reference (%v, %d)",
					trial, i, a.prob[i], a.alias[i], prob[i], alias[i])
			}
		}
	}
	if a := NewAlias([]float64{-3, 2, -1, 6}); a.prob[0] != 0 || a.prob[2] != 0 {
		t.Errorf("negative weights not treated as zero: %v", a.prob)
	}
}
