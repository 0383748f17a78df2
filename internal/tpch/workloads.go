package tpch

import (
	"fmt"

	"sampleunion/internal/join"
	"sampleunion/internal/relation"
)

// Workload is a union query over TPC-H data: the joins whose set union
// is sampled.
type Workload struct {
	Name  string
	Joins []*join.Join
	// Description documents the shape for tools and reports.
	Description string
}

// UQ1 builds the paper's first workload: five chain joins, each over
// nation ⋈ supplier ⋈ customer ⋈ orders ⋈ lineitem, on five data
// variants whose shared fraction is the overlap scale (§9, Datasets).
func UQ1(cfg Config) (*Workload, error) {
	return UQ1N(cfg, 5)
}

// UQ1N is UQ1 with a configurable number of variants (the paper uses
// five; scalability sweeps vary it).
func UQ1N(cfg Config, variants int) (*Workload, error) {
	if variants < 1 {
		return nil, fmt.Errorf("tpch: UQ1 needs at least 1 variant")
	}
	g := NewGenerator(cfg)
	nation := g.Nation()
	w := &Workload{
		Name:        "UQ1",
		Description: "five chain joins over nation⋈supplier⋈customer⋈orders⋈lineitem",
	}
	for v := 0; v < variants; v++ {
		j, err := join.NewChain(
			fmt.Sprintf("UQ1_J%d", v+1),
			[]*relation.Relation{nation, g.Supplier(v), g.Customer(v), g.Orders(v), g.Lineitem(v)},
			[]string{"nationkey", "nationkey", "custkey", "orderkey"},
		)
		if err != nil {
			return nil, err
		}
		w.Joins = append(w.Joins, j)
	}
	return w, nil
}

// UQ2 builds the second workload: three chain joins over
// region ⋈ nation ⋈ supplier ⋈ partsupp ⋈ part on the same data with
// different selection predicates (following Q2^N ∪ Q2^P ∪ Q2^S), so
// the joins overlap heavily (§9). Predicates are pushed down to the
// relations, the first alternative of §8.3.
func UQ2(cfg Config) (*Workload, error) {
	g := NewGenerator(cfg)
	region, nation := g.Region(), g.Nation()
	supplier, partsupp, part := g.Supplier(0), g.PartSupp(0), g.Part(0)
	w := &Workload{
		Name:        "UQ2",
		Description: "three predicate-filtered chain joins over region⋈nation⋈supplier⋈partsupp⋈part",
	}
	type variant struct {
		name     string
		nation   relation.Predicate
		supplier relation.Predicate
		part     relation.Predicate
	}
	variants := []variant{
		{"N", relation.Cmp{Attr: "nationkey", Op: relation.LT, Val: 18}, relation.True{}, relation.True{}},
		{"P", relation.True{}, relation.True{}, relation.Cmp{Attr: "p_size", Op: relation.LT, Val: 35}},
		{"S", relation.True{}, relation.Cmp{Attr: "s_acctbal", Op: relation.LT, Val: 7000}, relation.True{}},
	}
	for i, v := range variants {
		rels := []*relation.Relation{
			region,
			nation.Filter(fmt.Sprintf("nation_q%s", v.name), v.nation),
			supplier.Filter(fmt.Sprintf("supplier_q%s", v.name), v.supplier),
			partsupp,
			part.Filter(fmt.Sprintf("part_q%s", v.name), v.part),
		}
		j, err := join.NewChain(
			fmt.Sprintf("UQ2_Q%s", v.name), rels,
			[]string{"regionkey", "nationkey", "suppkey", "partkey"},
		)
		if err != nil {
			return nil, err
		}
		_ = i
		w.Joins = append(w.Joins, j)
	}
	return w, nil
}

// UQ3 builds the third workload: one acyclic join and two chain joins
// derived from supplier, customer, and orders, with relations split
// vertically (different schemas per join, so estimation must apply the
// splitting method of §5.2) and horizontally (order-status ranges that
// overlap partially). All three joins produce the same output schema.
func UQ3(cfg Config) (*Workload, error) {
	g := NewGenerator(cfg)
	w := &Workload{
		Name:        "UQ3",
		Description: "one acyclic + two chain joins over split supplier/customer/orders",
	}

	// J1: plain chain supplier ⋈ customer ⋈ orders on variant 0.
	j1, err := join.NewChain("UQ3_J1",
		[]*relation.Relation{g.Supplier(0), g.Customer(0), g.Orders(0)},
		[]string{"nationkey", "custkey"})
	if err != nil {
		return nil, err
	}
	w.Joins = append(w.Joins, j1)

	// J2: denormalized chain on variant 1 — supplier⋈customer is
	// materialized into one wide relation (the PartSupplier_E situation
	// of Fig 1), horizontally restricted to o_status <= 1.
	sc, err := materializeSupplierCustomer(g, 1)
	if err != nil {
		return nil, err
	}
	orders2 := g.Orders(1).Filter("orders_v1_lo",
		relation.Cmp{Attr: "o_status", Op: relation.LE, Val: 1})
	j2, err := join.NewChain("UQ3_J2",
		[]*relation.Relation{sc, orders2}, []string{"custkey"})
	if err != nil {
		return nil, err
	}
	w.Joins = append(w.Joins, j2)

	// J3: acyclic star on variant 2 — customer vertically split into
	// custA(custkey, nationkey, c_name) and custB(custkey, c_acctbal,
	// c_mktsegment); custA is the root joined to custB, supplier, and
	// orders (horizontally restricted to o_status >= 1).
	cust := g.Customer(2)
	custA, custB, err := relation.VerticalSplit(cust,
		"custA_v2", []string{"custkey", "c_name", "nationkey"},
		"custB_v2", []string{"custkey", "c_acctbal", "c_mktsegment"})
	if err != nil {
		return nil, err
	}
	orders3 := g.Orders(2).Filter("orders_v2_hi",
		relation.Cmp{Attr: "o_status", Op: relation.GE, Val: 1})
	j3, err := join.NewTree("UQ3_J3",
		[]*relation.Relation{custA, custB, g.Supplier(2), orders3},
		[]int{-1, 0, 0, 0},
		[]string{"", "custkey", "nationkey", "custkey"})
	if err != nil {
		return nil, err
	}
	w.Joins = append(w.Joins, j3)
	return w, nil
}

// materializeSupplierCustomer joins variant v's supplier and customer
// on nationkey into one denormalized relation.
func materializeSupplierCustomer(g *Generator, v int) (*relation.Relation, error) {
	j, err := join.NewChain("sc_tmp",
		[]*relation.Relation{g.Supplier(v), g.Customer(v)}, []string{"nationkey"})
	if err != nil {
		return nil, err
	}
	out := relation.New(fmt.Sprintf("suppcust_v%d", v), j.OutputSchema())
	j.Enumerate(func(t relation.Tuple) bool {
		out.Append(t.Clone())
		return true
	})
	return out, nil
}

// ByName builds the one named workload.
func ByName(name string, cfg Config) (*Workload, error) {
	switch name {
	case "UQ1":
		return UQ1(cfg)
	case "UQ2":
		return UQ2(cfg)
	case "UQ3":
		return UQ3(cfg)
	}
	return nil, fmt.Errorf("tpch: unknown workload %q (valid: UQ1, UQ2, UQ3)", name)
}

// Workloads builds all three workloads with one configuration.
func Workloads(cfg Config) (map[string]*Workload, error) {
	out := make(map[string]*Workload, 3)
	for _, name := range []string{"UQ1", "UQ2", "UQ3"} {
		w, err := ByName(name, cfg)
		if err != nil {
			return nil, err
		}
		out[name] = w
	}
	return out, nil
}
