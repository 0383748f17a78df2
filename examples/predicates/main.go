// Predicates demonstrates §8.3's two ways of sampling under a
// selection: pushing the predicate down to base relations before
// sampling (best for selective predicates) versus enforcing it during
// sampling by rejection (fine for broad predicates, no preprocessing).
//
//	go run ./examples/predicates
package main

import (
	"fmt"
	"log"

	"sampleunion"
)

func main() {
	u := buildUnion()

	// One prepared session serves every sampling-time predicate below:
	// the warm-up runs once, each SampleWhere call only pays draws.
	s, err := u.Prepare(sampleunion.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// A broad predicate: about half the union qualifies. Rejection at
	// sampling time is cheap.
	broad := sampleunion.Cmp{Attr: "price", Op: sampleunion.LT, Val: 500}
	tuples, stats, err := s.SampleWhere(1000, broad)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broad predicate (%s): %d samples from %d draws\n",
		broad, len(tuples), stats.TotalDraws)

	// A selective predicate: one product out of hundreds. Push it down
	// so the samplers never touch non-qualifying rows.
	selective := sampleunion.Cmp{Attr: "productkey", Op: sampleunion.EQ, Val: 77}
	fu, err := u.PushDown(selective)
	if err != nil {
		log.Fatal(err)
	}
	size, err := fu.ExactUnionSize()
	if err != nil {
		log.Fatal(err)
	}
	fs, err := fu.Prepare(sampleunion.Options{Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	tuples2, stats2, err := fs.Sample(100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selective predicate (%s): filtered union has %d tuples; %d samples from %d draws\n",
		selective, size, len(tuples2), stats2.TotalDraws)

	// The same selective predicate via rejection would need ~|U|/|σ(U)|
	// draws per sample — run it on the shared session with a small
	// budget to show the cost.
	_, stats3, err := s.SampleWhere(20, selective)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same predicate by rejection: %d draws for 20 samples (pushdown wins)\n",
		stats3.TotalDraws)
}

func buildUnion() *sampleunion.Union {
	mk := func(name string, lo, hi int) *sampleunion.Join {
		products := sampleunion.NewRelation("products_"+name,
			sampleunion.NewSchema("productkey", "price"))
		sales := sampleunion.NewRelation("sales_"+name,
			sampleunion.NewSchema("salekey", "productkey"))
		for p := lo; p < hi; p++ {
			products.AppendValues(sampleunion.Value(p), sampleunion.Value((p*37)%1000))
			for k := 0; k < 2; k++ {
				sales.AppendValues(sampleunion.Value(p*10+k), sampleunion.Value(p))
			}
		}
		j, err := sampleunion.Chain(name,
			[]*sampleunion.Relation{products, sales}, []string{"productkey"})
		if err != nil {
			log.Fatal(err)
		}
		return j
	}
	u, err := sampleunion.NewUnion(mk("a", 0, 300), mk("b", 150, 450))
	if err != nil {
		log.Fatal(err)
	}
	return u
}
