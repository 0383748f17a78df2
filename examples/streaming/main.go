// Command streaming demonstrates live relations: a prepared session
// keeps serving uniform samples while the underlying data mutates —
// append bursts and deletes are absorbed by Session.Refresh (or
// transparently with Options.AutoRefresh) instead of a cold re-prepare.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	sampleunion "sampleunion"
)

func main() {
	// Two marketplaces list products with sellers; the union samples
	// over both product ⋈ listing joins.
	mk := func(name string, lo, hi int) (*sampleunion.Join, *sampleunion.Relation, *sampleunion.Relation) {
		products := sampleunion.NewRelation("products_"+name, sampleunion.NewSchema("product", "category"))
		listings := sampleunion.NewRelation("listings_"+name, sampleunion.NewSchema("listing", "product"))
		for k := lo; k < hi; k++ {
			products.AppendValues(sampleunion.Value(k), sampleunion.Value(k%7))
			listings.AppendValues(sampleunion.Value(k*100), sampleunion.Value(k))
		}
		j, err := sampleunion.Chain("J_"+name, []*sampleunion.Relation{products, listings}, []string{"product"})
		if err != nil {
			log.Fatal(err)
		}
		return j, products, listings
	}
	j1, p1, l1 := mk("north", 0, 5000)
	j2, _, _ := mk("south", 2500, 7500)
	u, err := sampleunion.NewUnion(j1, j2)
	if err != nil {
		log.Fatal(err)
	}

	// One warm-up, then the session serves draws at per-draw cost.
	s, err := u.Prepare(sampleunion.Options{
		WarmupWalks: 300,
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared: |U| ~= %.0f (warm-up %v)\n", s.UnionSize(), s.WarmupTime())

	// Streaming ingest: batches arrive, the session refreshes
	// incrementally — delta-overlaid indexes, membership deltas, and
	// dirty-join sampler rebuilds instead of a cold Prepare.
	for batch := 0; batch < 5; batch++ {
		products := make([]sampleunion.Tuple, 0, 64)
		listings := make([]sampleunion.Tuple, 0, 64)
		for i := 0; i < 64; i++ {
			k := sampleunion.Value(100000 + batch*64 + i)
			products = append(products, sampleunion.Tuple{k, sampleunion.Value(i % 7)})
			listings = append(listings, sampleunion.Tuple{k * 100, k})
		}
		p1.AppendRows(products)
		l1.AppendRows(listings)
		// A churned listing disappears; its row id stays valid (tombstone),
		// it just stops matching.
		l1.Delete(batch * 10)

		if !s.Stale() {
			log.Fatal("session should be stale after mutations")
		}
		if err := s.Refresh(); err != nil {
			log.Fatal(err)
		}
		tuples, stats, err := s.Sample(200)
		if err != nil {
			log.Fatal(err)
		}
		fresh := 0
		for _, t := range tuples {
			if t[0] >= 100000 {
				fresh++
			}
		}
		fmt.Printf("batch %d: |U| ~= %.0f, 200 draws (%d from fresh rows), accepted=%d\n",
			batch, s.UnionSize(), fresh, stats.Accepted)
	}

	// AutoRefresh folds the Refresh call into the draw path.
	auto, err := u.Prepare(sampleunion.Options{
		WarmupWalks: 300,
		Seed:        43,
		AutoRefresh: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	p1.AppendValues(999999, 3)
	l1.AppendValues(99999900, 999999)
	if _, _, err := auto.Sample(50); err != nil { // reconciles transparently
		log.Fatal(err)
	}
	fmt.Printf("auto-refresh session served mutated data; stale=%v\n", auto.Stale())
}
