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
	rels := generate(variants, g.Supplier, g.Customer, g.Orders, g.Lineitem)
	for v := 0; v < variants; v++ {
		j, err := join.NewChain(
			fmt.Sprintf("UQ1_J%d", v+1),
			append([]*relation.Relation{nation}, rels[v]...),
			[]string{"nationkey", "nationkey", "custkey", "orderkey"},
		)
		if err != nil {
			return nil, err
		}
		w.Joins = append(w.Joins, j)
	}
	return w, nil
}

// generate builds every kind of relation for variants 0 … variants-1,
// out[v][k] = kinds[k](v), side by side: a cell is a pure function of
// (seed, relation, row, column, variant), so the order relations are
// built in — and on how many cores — cannot change them.
func generate(variants int, kinds ...func(v int) *relation.Relation) [][]*relation.Relation {
	out := make([][]*relation.Relation, variants)
	for v := range out {
		out[v] = make([]*relation.Relation, len(kinds))
	}
	join.FanOut(0, variants*len(kinds), func(i int) {
		v, k := i/len(kinds), i%len(kinds)
		out[v][k] = kinds[k](v)
	})
	return out
}

// UQ2 builds the second workload: three chain joins over
// region ⋈ nation ⋈ supplier ⋈ partsupp ⋈ part on the same data with
// different selection predicates (following Q2^N ∪ Q2^P ∪ Q2^S), so
// the joins overlap heavily (§9). Predicates are pushed down to the
// relations, the first alternative of §8.3.
func UQ2(cfg Config) (*Workload, error) {
	g := NewGenerator(cfg)
	region, nation := g.Region(), g.Nation()
	v0 := generate(1, g.Supplier, g.PartSupp, g.Part)[0]
	supplier, partsupp, part := v0[0], v0[1], v0[2]
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
	for _, v := range variants {
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

	const sup, cust, ord = 0, 1, 2
	rels := generate(3, g.Supplier, g.Customer, g.Orders)

	// J1: plain chain supplier ⋈ customer ⋈ orders on variant 0.
	j1, err := join.NewChain("UQ3_J1", rels[0], []string{"nationkey", "custkey"})
	if err != nil {
		return nil, err
	}
	w.Joins = append(w.Joins, j1)

	// J2: denormalized chain on variant 1 — supplier⋈customer is
	// materialized into one wide relation (the PartSupplier_E situation
	// of Fig 1), horizontally restricted to o_status <= 1.
	sc, err := materializeSupplierCustomer(1, rels[1][sup], rels[1][cust])
	if err != nil {
		return nil, err
	}
	orders2 := rels[1][ord].Filter("orders_v1_lo",
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
	custA, custB, err := relation.VerticalSplit(rels[2][cust],
		"custA_v2", []string{"custkey", "c_name", "nationkey"},
		"custB_v2", []string{"custkey", "c_acctbal", "c_mktsegment"})
	if err != nil {
		return nil, err
	}
	orders3 := rels[2][ord].Filter("orders_v2_hi",
		relation.Cmp{Attr: "o_status", Op: relation.GE, Val: 1})
	j3, err := join.NewTree("UQ3_J3",
		[]*relation.Relation{custA, custB, rels[2][sup], orders3},
		[]int{-1, 0, 0, 0},
		[]string{"", "custkey", "nationkey", "custkey"})
	if err != nil {
		return nil, err
	}
	w.Joins = append(w.Joins, j3)
	return w, nil
}

// materializeSupplierCustomer joins variant v's supplier and customer
// on nationkey into one denormalized relation, bulk-loaded into columns
// sized by the join's exact count.
func materializeSupplierCustomer(v int, supplier, customer *relation.Relation) (*relation.Relation, error) {
	j, err := join.NewChain("sc_tmp", []*relation.Relation{supplier, customer}, []string{"nationkey"})
	if err != nil {
		return nil, err
	}
	cols := columns(j.OutputSchema().Len(), int(j.Count()))
	i := 0
	j.Enumerate(func(t relation.Tuple) bool {
		for a, v := range t {
			cols[a][i] = v
		}
		i++
		return true
	})
	out := relation.New(fmt.Sprintf("suppcust_v%d", v), j.OutputSchema())
	out.AppendColumns(cols)
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
