// Training demonstrates the paper's headline motivation: learning over
// the union of joins without materializing it. A linear model trained
// on an i.i.d. sample of the union recovers (nearly) the same
// coefficients as one trained on the full, expensive-to-compute union
// — the Vapnik–Chervonenkis argument of §1 in action.
//
//	go run ./examples/training
package main

import (
	"fmt"
	"log"
	"math"

	"sampleunion"
)

func main() {
	u := buildUnion()

	// Ground truth: materialize the full union (what we want to avoid
	// at scale) and fit on all of it.
	full := materializeUnion(u)
	wFull := fitOLS(full, u)
	fmt.Printf("full union: %d tuples, coefficients = %v\n", len(full), round(wFull))

	// The paper's way: fit on a 10%-sized i.i.d. sample.
	n := len(full) / 10
	s, err := u.Prepare(sampleunion.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	sample, _, err := s.Sample(n)
	if err != nil {
		log.Fatal(err)
	}
	wSample := fitOLS(sample, u)
	fmt.Printf("sample:     %d tuples, coefficients = %v\n", n, round(wSample))

	// Contrast with a deliberately *biased* collection: taking tuples
	// from only the first join skews the fit.
	biased := materializeJoin(u, 0)[:n]
	wBiased := fitOLS(biased, u)
	fmt.Printf("biased:     %d tuples (first join only), coefficients = %v\n", n, round(wBiased))

	fmt.Printf("\n|sample - full| = %.3f, |biased - full| = %.3f\n",
		dist(wSample, wFull), dist(wBiased, wFull))
}

// buildUnion creates two store databases whose sales follow
// y = 3·x1 + 2·x2 + 50 with region-dependent feature ranges, so a
// single region is a biased training set.
func buildUnion() *sampleunion.Union {
	mk := func(name string, lo, hi, intercept int) *sampleunion.Join {
		items := sampleunion.NewRelation("items_"+name, sampleunion.NewSchema("itemkey", "x1"))
		sales := sampleunion.NewRelation("sales_"+name, sampleunion.NewSchema("salekey", "itemkey", "x2", "y"))
		for i := lo; i < hi; i++ {
			x1 := i % 40
			items.AppendValues(sampleunion.Value(i), sampleunion.Value(x1))
			for k := 0; k < 2; k++ {
				x2 := (i*7 + k*13) % 25
				noise := (i*31+k*17)%7 - 3
				y := 3*x1 + 2*x2 + intercept + noise
				sales.AppendValues(
					sampleunion.Value(i*10+k), sampleunion.Value(i),
					sampleunion.Value(x2), sampleunion.Value(y))
			}
		}
		j, err := sampleunion.Chain(name,
			[]*sampleunion.Relation{items, sales}, []string{"itemkey"})
		if err != nil {
			log.Fatal(err)
		}
		return j
	}
	// The two regions follow different intercepts (50 vs 80): training
	// on one region alone misses the mixture the model should learn.
	u, err := sampleunion.NewUnion(mk("north", 0, 700, 50), mk("south", 700, 1400, 80))
	if err != nil {
		log.Fatal(err)
	}
	return u
}

func materializeUnion(u *sampleunion.Union) []sampleunion.Tuple {
	seen := map[string]bool{}
	var out []sampleunion.Tuple
	for i := range u.Joins() {
		for _, t := range materializeJoin(u, i) {
			k := fmt.Sprint(t)
			if !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	return out
}

func materializeJoin(u *sampleunion.Union, i int) []sampleunion.Tuple {
	j := u.Joins()[i]
	ref := u.OutputSchema()
	var out []sampleunion.Tuple
	perm := make([]int, ref.Len())
	for k := 0; k < ref.Len(); k++ {
		perm[k] = j.OutputSchema().Index(ref.Attr(k))
	}
	j.Enumerate(func(t sampleunion.Tuple) bool {
		row := make(sampleunion.Tuple, len(perm))
		for k, p := range perm {
			row[k] = t[p]
		}
		out = append(out, row)
		return true
	})
	return out
}

// fitOLS solves least squares for y ~ w0 + w1·x1 + w2·x2 via the 3x3
// normal equations.
func fitOLS(rows []sampleunion.Tuple, u *sampleunion.Union) [3]float64 {
	s := u.OutputSchema()
	ix1, ix2, iy := s.Index("x1"), s.Index("x2"), s.Index("y")
	var a [3][3]float64
	var b [3]float64
	for _, t := range rows {
		x := [3]float64{1, float64(t[ix1]), float64(t[ix2])}
		y := float64(t[iy])
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				a[r][c] += x[r] * x[c]
			}
			b[r] += x[r] * y
		}
	}
	return solve3(a, b)
}

// solve3 performs Gaussian elimination on a 3x3 system.
func solve3(a [3][3]float64, b [3]float64) [3]float64 {
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < 3; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var w [3]float64
	for r := 2; r >= 0; r-- {
		w[r] = b[r]
		for c := r + 1; c < 3; c++ {
			w[r] -= a[r][c] * w[c]
		}
		w[r] /= a[r][r]
	}
	return w
}

func dist(a, b [3]float64) float64 {
	d := 0.0
	for i := range a {
		d += (a[i] - b[i]) * (a[i] - b[i])
	}
	return math.Sqrt(d)
}

func round(w [3]float64) [3]float64 {
	for i := range w {
		w[i] = float64(int(w[i]*100+0.5)) / 100
	}
	return w
}
