// Datamarket demonstrates the decentralized setting (§5): sellers'
// catalogs overlap, and the histogram warm-up bounds those overlaps —
// and so the union size — from column statistics (histograms and
// degree bounds) instead of walks. A session then buys a uniform
// sample of the union.
//
//	go run ./examples/datamarket
package main

import (
	"fmt"
	"log"

	"sampleunion"
)

func main() {
	// Three data sellers expose the same logical product-review feed,
	// each as a join over their internal tables; their catalogs
	// overlap because they syndicate from the same upstream sources.
	sellers := []*sampleunion.Join{
		buildSeller("acme", 0, 500, 3),
		buildSeller("globex", 300, 800, 4),
		buildSeller("initech", 600, 1100, 5),
	}
	u, err := sampleunion.NewUnion(sellers...)
	if err != nil {
		log.Fatal(err)
	}

	// Union size bounded from column statistics (no warm-up walks).
	est, err := u.EstimateUnionSize(sampleunion.Options{Warmup: sampleunion.WarmupHistogram})
	if err != nil {
		log.Fatal(err)
	}
	exact, err := u.ExactUnionSize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("union size: histogram bound %.0f, exact %d (bound/exact = %.2fx)\n",
		est, exact, est/float64(exact))

	// Buy a 25-tuple uniform sample under the default warm-up.
	s, err := u.Prepare(sampleunion.Options{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	tuples, stats, err := s.Sample(25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bought %d tuples; %d tuple accesses total (%d rejected as duplicates, %d by the join subroutine)\n",
		len(tuples), stats.TotalDraws, stats.RejectedDup, stats.JoinRejects)
	fmt.Println("first rows:")
	for _, t := range tuples[:5] {
		fmt.Println(" ", t)
	}
}

// buildSeller builds one seller's feed: products ⋈ reviews with a
// seller-specific fanout (reviews per product), producing skew that
// the histogram bound must absorb.
func buildSeller(name string, lo, hi, fanout int) *sampleunion.Join {
	products := sampleunion.NewRelation("products_"+name,
		sampleunion.NewSchema("productkey", "category"))
	reviews := sampleunion.NewRelation("reviews_"+name,
		sampleunion.NewSchema("reviewkey", "productkey", "stars"))
	for p := lo; p < hi; p++ {
		products.AppendValues(sampleunion.Value(p), sampleunion.Value(p%7))
		// Syndicated reviews are deterministic by product, so the same
		// product carries the same reviews at every seller; fanout
		// beyond the shared two is seller-specific.
		n := 2
		if p%11 == 0 {
			n = fanout
		}
		for r := 0; r < n; r++ {
			reviews.AppendValues(
				sampleunion.Value(p*100+r),
				sampleunion.Value(p),
				sampleunion.Value(1+(p+r)%5),
			)
		}
	}
	j, err := sampleunion.Chain(name,
		[]*sampleunion.Relation{products, reviews}, []string{"productkey"})
	if err != nil {
		log.Fatal(err)
	}
	return j
}
