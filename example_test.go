package sampleunion_test

import (
	"fmt"

	"sampleunion"
)

// Example demonstrates the minimal flow: build two joins over
// normalized tables, union them, prepare a session, and draw uniform
// samples from it.
func Example() {
	build := func(region string, lo, hi int) *sampleunion.Join {
		cust := sampleunion.NewRelation("cust_"+region,
			sampleunion.NewSchema("custkey", "segment"))
		orders := sampleunion.NewRelation("orders_"+region,
			sampleunion.NewSchema("orderkey", "custkey"))
		for k := lo; k < hi; k++ {
			cust.AppendValues(sampleunion.Value(k), sampleunion.Value(k%3))
			orders.AppendValues(sampleunion.Value(2*k), sampleunion.Value(k))
			orders.AppendValues(sampleunion.Value(2*k+1), sampleunion.Value(k))
		}
		j, err := sampleunion.Chain(region,
			[]*sampleunion.Relation{cust, orders}, []string{"custkey"})
		if err != nil {
			panic(err)
		}
		return j
	}
	east := build("east", 0, 40)
	west := build("west", 25, 65) // customers 25..39 overlap

	u, err := sampleunion.NewUnion(east, west)
	if err != nil {
		panic(err)
	}
	exact, err := u.ExactUnionSize()
	if err != nil {
		panic(err)
	}
	s, err := u.Prepare(sampleunion.Options{
		Warmup: sampleunion.WarmupExact, // exact parameters: exactly uniform
		Seed:   1,
	})
	if err != nil {
		panic(err)
	}
	tuples, _, err := s.Sample(5)
	if err != nil {
		panic(err)
	}
	fmt.Println("union size:", exact)
	fmt.Println("samples drawn:", len(tuples))
	fmt.Println("schema:", u.OutputSchema())
	// Output:
	// union size: 130
	// samples drawn: 5
	// schema: (custkey, segment, orderkey)
}

// ExampleSession_ApproxCount answers an aggregate over the union from a
// sample instead of executing the joins.
func ExampleSession_ApproxCount() {
	items := sampleunion.NewRelation("items", sampleunion.NewSchema("itemkey", "price"))
	sales := sampleunion.NewRelation("sales", sampleunion.NewSchema("salekey", "itemkey"))
	for i := 0; i < 500; i++ {
		items.AppendValues(sampleunion.Value(i), sampleunion.Value(i%100))
		sales.AppendValues(sampleunion.Value(i), sampleunion.Value(i))
	}
	j, err := sampleunion.Chain("sales", []*sampleunion.Relation{items, sales}, []string{"itemkey"})
	if err != nil {
		panic(err)
	}
	u, err := sampleunion.NewUnion(j)
	if err != nil {
		panic(err)
	}
	s, err := u.Prepare(sampleunion.Options{Warmup: sampleunion.WarmupExact, Seed: 2})
	if err != nil {
		panic(err)
	}
	// COUNT(*) WHERE price < 50 — the truth is 250.
	res, err := s.ApproxCount(sampleunion.Cmp{Attr: "price", Op: sampleunion.LT, Val: 50}, 4000)
	if err != nil {
		panic(err)
	}
	fmt.Println("estimate within 10% of 250:", res.Value > 225 && res.Value < 275)
	// Output:
	// estimate within 10% of 250: true
}
