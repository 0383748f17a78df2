// Retail reproduces the paper's Example 1: a data scientist needs an
// i.i.d. sample of customer/order training data that lives in three
// regional databases with different layouts — West normalized into
// three relations, East partially denormalized, and Midwest one wide
// view split vertically. Each region is a different join shape (chain,
// chain over a denormalized relation, acyclic star), all with the same
// output schema, and the union sampler draws the training set without
// running any join.
//
//	go run ./examples/retail
package main

import (
	"fmt"
	"log"

	"sampleunion"
)

// The shared output schema of all three regional queries.
var outputAttrs = []string{"custkey", "segment", "orderkey", "total", "itemkey", "qty"}

func main() {
	west := buildWest()       // normalized: customers ⋈ orders ⋈ items
	east := buildEast()       // denormalized: custorders ⋈ items
	midwest := buildMidwest() // star: orders joined to split customer halves

	u, err := sampleunion.NewUnion(west, east, midwest)
	if err != nil {
		log.Fatal(err)
	}

	exact, err := u.ExactUnionSize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training universe (set union of 3 regional joins): %d tuples\n", exact)

	// The training set: 20 i.i.d. tuples, uniform over the union.
	s, err := u.Prepare(sampleunion.Options{
		Warmup: sampleunion.WarmupRandomWalk,
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	train, stats, err := s.Sample(20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("schema:", u.OutputSchema())
	for _, t := range train {
		fmt.Println(" ", t)
	}
	fmt.Printf("drew %d samples with %d subroutine draws (%d duplicate rejections)\n",
		stats.Accepted, stats.TotalDraws, stats.RejectedDup)
}

// seedRows emits deterministic customer/order/item facts for a key
// range; overlapping ranges across regions produce overlapping join
// results, like franchise customers shopping in multiple regions.
func seedRows(lo, hi int, f func(cust, seg, ord, total, item, qty int)) {
	for c := lo; c < hi; c++ {
		for o := 0; o < 2; o++ {
			ord := c*10 + o
			for i := 0; i < 2; i++ {
				f(c, c%3, ord, 50+ord%100, ord*10+i, 1+(c+i)%5)
			}
		}
	}
}

// buildWest is the normalized layout: customer, order, and item
// relations joined in a chain.
func buildWest() *sampleunion.Join {
	cust := sampleunion.NewRelation("cust_w", sampleunion.NewSchema("custkey", "segment"))
	ord := sampleunion.NewRelation("ord_w", sampleunion.NewSchema("orderkey", "custkey", "total"))
	items := sampleunion.NewRelation("items_w", sampleunion.NewSchema("itemkey", "orderkey", "qty"))
	seenCust := map[int]bool{}
	seenOrd := map[int]bool{}
	seedRows(0, 60, func(c, seg, o, total, item, qty int) {
		if !seenCust[c] {
			seenCust[c] = true
			cust.AppendValues(sampleunion.Value(c), sampleunion.Value(seg))
		}
		if !seenOrd[o] {
			seenOrd[o] = true
			ord.AppendValues(sampleunion.Value(o), sampleunion.Value(c), sampleunion.Value(total))
		}
		items.AppendValues(sampleunion.Value(item), sampleunion.Value(o), sampleunion.Value(qty))
	})
	j, err := sampleunion.Chain("west",
		[]*sampleunion.Relation{cust, ord, items}, []string{"custkey", "orderkey"})
	if err != nil {
		log.Fatal(err)
	}
	return j
}

// buildEast is partially denormalized: one wide customer-order view
// joined to items (the PartSupplier_E situation of the paper's Fig 1).
func buildEast() *sampleunion.Join {
	co := sampleunion.NewRelation("custord_e",
		sampleunion.NewSchema("custkey", "segment", "orderkey", "total"))
	items := sampleunion.NewRelation("items_e", sampleunion.NewSchema("itemkey", "orderkey", "qty"))
	seenOrd := map[int]bool{}
	seedRows(40, 100, func(c, seg, o, total, item, qty int) {
		if !seenOrd[o] {
			seenOrd[o] = true
			co.AppendValues(sampleunion.Value(c), sampleunion.Value(seg),
				sampleunion.Value(o), sampleunion.Value(total))
		}
		items.AppendValues(sampleunion.Value(item), sampleunion.Value(o), sampleunion.Value(qty))
	})
	j, err := sampleunion.Chain("east",
		[]*sampleunion.Relation{co, items}, []string{"orderkey"})
	if err != nil {
		log.Fatal(err)
	}
	return j
}

// buildMidwest splits the customer view vertically: order facts form
// the root and the two customer halves plus items attach as children —
// an acyclic (star) join.
func buildMidwest() *sampleunion.Join {
	ordFacts := sampleunion.NewRelation("ordfacts_mw",
		sampleunion.NewSchema("orderkey", "custkey", "total"))
	custSeg := sampleunion.NewRelation("custseg_mw", sampleunion.NewSchema("custkey", "segment"))
	items := sampleunion.NewRelation("items_mw", sampleunion.NewSchema("itemkey", "orderkey", "qty"))
	seenOrd := map[int]bool{}
	seenCust := map[int]bool{}
	seedRows(80, 140, func(c, seg, o, total, item, qty int) {
		if !seenOrd[o] {
			seenOrd[o] = true
			ordFacts.AppendValues(sampleunion.Value(o), sampleunion.Value(c), sampleunion.Value(total))
		}
		if !seenCust[c] {
			seenCust[c] = true
			custSeg.AppendValues(sampleunion.Value(c), sampleunion.Value(seg))
		}
		items.AppendValues(sampleunion.Value(item), sampleunion.Value(o), sampleunion.Value(qty))
	})
	j, err := sampleunion.Tree("midwest",
		[]*sampleunion.Relation{ordFacts, custSeg, items},
		[]int{-1, 0, 0}, []string{"", "custkey", "orderkey"})
	if err != nil {
		log.Fatal(err)
	}
	return j
}
