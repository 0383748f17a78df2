// Package tpch generates the evaluation data of §9: TPC-H-shaped
// relations (region, nation, supplier, customer, orders, lineitem,
// part, partsupp) at a configurable scale factor, produced in variants
// whose shared-row fraction is the paper's overlap scale. Each union
// workload (UQ1, UQ2, UQ3) is built from these variants.
//
// The generator is deterministic: every cell value is a hash of
// (seed, relation, row, column, variant), so relations can be built in
// any order and reproduced exactly. The first ceil(overlap·n) rows of
// each relation are variant-independent ("shared"), and foreign keys of
// shared rows point at shared targets, which makes the overlap of join
// results grow monotonically with the overlap scale — the paper's
// guarantee that "the overlap ratio between queries is proportional to
// the overlap scale" (§9).
package tpch

import (
	"fmt"
	"math"

	"sampleunion/internal/relation"
)

// Config controls data generation.
type Config struct {
	// SF is the scale factor; row counts scale linearly (see Rows).
	// Values <= 0 default to 1.
	SF float64
	// Overlap is the overlap scale P in [0, 1]: the fraction of each
	// relation shared across variants. Negative defaults to 0.2.
	Overlap float64
	// Seed makes the dataset reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.SF <= 0 {
		c.SF = 1
	}
	if c.Overlap < 0 {
		c.Overlap = 0.2
	}
	if c.Overlap > 1 {
		c.Overlap = 1
	}
	return c
}

// Rows holds the per-relation row counts at SF = 1; counts scale
// linearly with SF (nation and region stay fixed, as in TPC-H).
var Rows = struct {
	Supplier, Customer, Orders, Lineitem, Part, PartSupp int
}{
	Supplier: 100,
	Customer: 300,
	Orders:   600,
	Lineitem: 1200,
	Part:     200,
	PartSupp: 400,
}

// Generator produces relation variants for one configuration.
type Generator struct {
	cfg Config
}

// NewGenerator returns a generator for the configuration.
func NewGenerator(cfg Config) *Generator {
	return &Generator{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration (defaults applied).
func (g *Generator) Config() Config { return g.cfg }

// scaled returns base rows scaled by SF, at least 1.
func (g *Generator) scaled(base int) int {
	n := int(math.Round(float64(base) * g.cfg.SF))
	if n < 1 {
		n = 1
	}
	return n
}

// shared returns how many of n rows are variant-independent.
func (g *Generator) sharedCount(n int) int {
	s := int(math.Ceil(g.cfg.Overlap * float64(n)))
	if s > n {
		s = n
	}
	return s
}

// stream is one relation's cell hash: the seed and the relation's name
// already folded in, so a cell mixes in only its row, column and salt.
type stream uint64

// stream returns rel's cell hash.
func (g *Generator) stream(rel string) stream {
	return stream(mix(uint64(g.cfg.Seed)*0x9E3779B97F4A7C15+0x2545F4914F6CDD1D, hashString(rel)))
}

// cell produces the deterministic value for (row, column, salt) of the
// stream's relation; salt is -1 for shared rows and the variant index
// otherwise.
func (s stream) cell(row, col, salt int) relation.Value {
	h := mix(mix(mix(uint64(s), uint64(row)), uint64(col)), uint64(int64(salt)))
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return relation.Value(h & 0x7FFFFFFF)
}

// mix folds p into the hash state h.
func mix(h, p uint64) uint64 {
	h ^= p
	h *= 0x100000001B3
	return h ^ h>>29
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// salt returns the generator salt for row i of a relation with s shared
// rows in variant v.
func salt(i, s, v int) int {
	if i < s {
		return -1
	}
	return v
}

// NationCount and RegionCount are TPC-H's fixed small-relation sizes.
const (
	NationCount = 25
	RegionCount = 5
)

// Region returns the region relation (variant-independent).
func (g *Generator) Region() *relation.Relation {
	return load("region", RegionCount, []string{"regionkey", "r_name"}, func(c [][]relation.Value, i int) {
		c[0][i], c[1][i] = relation.Value(i), relation.Value(i*100+7)
	})
}

// Nation returns the nation relation (variant-independent).
func (g *Generator) Nation() *relation.Relation {
	return load("nation", NationCount, []string{"nationkey", "n_name", "regionkey"}, func(c [][]relation.Value, i int) {
		c[0][i], c[1][i], c[2][i] = relation.Value(i), relation.Value(i*100+13), relation.Value(i%RegionCount)
	})
}

// load builds an n-row relation as one columnar bulk load: exactly sized
// column vectors, row i filled by fill(cols, i), one AppendColumns — the
// Version and contents appending the rows one at a time would leave,
// without a snapshot per row.
func load(name string, n int, attrs []string, fill func(c [][]relation.Value, i int)) *relation.Relation {
	cols := columns(len(attrs), n)
	for i := 0; i < n; i++ {
		fill(cols, i)
	}
	r := relation.New(name, relation.NewSchema(attrs...))
	r.AppendColumns(cols)
	return r
}

// columns returns k exactly sized column vectors of n rows.
func columns(k, n int) [][]relation.Value {
	cols := make([][]relation.Value, k)
	for a := range cols {
		cols[a] = make([]relation.Value, n)
	}
	return cols
}

// Supplier returns variant v's supplier relation.
func (g *Generator) Supplier(v int) *relation.Relation {
	n := g.scaled(Rows.Supplier)
	s := g.sharedCount(n)
	st := g.stream("supplier")
	return load(fmt.Sprintf("supplier_v%d", v), n, []string{"suppkey", "s_name", "nationkey", "s_acctbal"},
		func(c [][]relation.Value, i int) {
			sa := salt(i, s, v)
			c[0][i] = relation.Value(i)
			c[1][i] = st.cell(i, 1, sa) % 100000
			c[2][i] = relation.Value(int64(st.cell(i, 2, -1)) % NationCount)
			c[3][i] = st.cell(i, 3, sa) % 10000
		})
}

// Customer returns variant v's customer relation.
func (g *Generator) Customer(v int) *relation.Relation {
	n := g.scaled(Rows.Customer)
	s := g.sharedCount(n)
	st := g.stream("customer")
	return load(fmt.Sprintf("customer_v%d", v), n, []string{"custkey", "c_name", "nationkey", "c_acctbal", "c_mktsegment"},
		func(c [][]relation.Value, i int) {
			sa := salt(i, s, v)
			c[0][i] = relation.Value(i)
			c[1][i] = st.cell(i, 1, sa) % 100000
			c[2][i] = relation.Value(int64(st.cell(i, 2, -1)) % NationCount)
			c[3][i] = st.cell(i, 3, sa) % 10000
			c[4][i] = relation.Value(int64(st.cell(i, 4, sa)) % 5)
		})
}

// Orders returns variant v's orders relation. Shared orders reference
// shared customers so result overlap tracks the overlap scale.
func (g *Generator) Orders(v int) *relation.Relation {
	n := g.scaled(Rows.Orders)
	s := g.sharedCount(n)
	nCust := g.scaled(Rows.Customer)
	sCust := g.sharedCount(nCust)
	st := g.stream("orders")
	return load(fmt.Sprintf("orders_v%d", v), n, []string{"orderkey", "custkey", "o_status", "o_totalprice"},
		func(c [][]relation.Value, i int) {
			sa := salt(i, s, v)
			var ck int64
			if sa == -1 && sCust > 0 {
				ck = int64(st.cell(i, 1, -1)) % int64(sCust)
			} else {
				ck = int64(st.cell(i, 1, sa)) % int64(nCust)
			}
			c[0][i] = relation.Value(i)
			c[1][i] = relation.Value(ck)
			c[2][i] = relation.Value(int64(st.cell(i, 2, sa)) % 3)
			c[3][i] = st.cell(i, 3, sa) % 100000
		})
}

// Lineitem returns variant v's lineitem relation (UQ1's shape: no part
// or supplier references, which would otherwise imply extra join
// predicates under shared attribute names). Shared lineitems reference
// shared orders.
func (g *Generator) Lineitem(v int) *relation.Relation {
	n := g.scaled(Rows.Lineitem)
	s := g.sharedCount(n)
	nOrd := g.scaled(Rows.Orders)
	sOrd := g.sharedCount(nOrd)
	st := g.stream("lineitem")
	return load(fmt.Sprintf("lineitem_v%d", v), n, []string{"orderkey", "l_linenumber", "l_quantity", "l_price"},
		func(c [][]relation.Value, i int) {
			sa := salt(i, s, v)
			var ok int64
			if sa == -1 && sOrd > 0 {
				ok = int64(st.cell(i, 0, -1)) % int64(sOrd)
			} else {
				ok = int64(st.cell(i, 0, sa)) % int64(nOrd)
			}
			c[0][i] = relation.Value(ok)
			c[1][i] = relation.Value(i)
			c[2][i] = st.cell(i, 2, sa)%50 + 1
			c[3][i] = st.cell(i, 3, sa) % 100000
		})
}

// Part returns variant v's part relation.
func (g *Generator) Part(v int) *relation.Relation {
	n := g.scaled(Rows.Part)
	s := g.sharedCount(n)
	st := g.stream("part")
	return load(fmt.Sprintf("part_v%d", v), n, []string{"partkey", "p_name", "p_size", "p_retail"},
		func(c [][]relation.Value, i int) {
			sa := salt(i, s, v)
			c[0][i] = relation.Value(i)
			c[1][i] = st.cell(i, 1, sa) % 100000
			c[2][i] = st.cell(i, 2, sa)%50 + 1
			c[3][i] = st.cell(i, 3, sa) % 10000
		})
}

// PartSupp returns variant v's partsupp relation. Shared rows reference
// shared parts and suppliers.
func (g *Generator) PartSupp(v int) *relation.Relation {
	n := g.scaled(Rows.PartSupp)
	s := g.sharedCount(n)
	nPart, sPart := g.scaled(Rows.Part), g.sharedCount(g.scaled(Rows.Part))
	nSupp, sSupp := g.scaled(Rows.Supplier), g.sharedCount(g.scaled(Rows.Supplier))
	st := g.stream("partsupp")
	return load(fmt.Sprintf("partsupp_v%d", v), n, []string{"partkey", "suppkey", "ps_availqty", "ps_supplycost"},
		func(c [][]relation.Value, i int) {
			sa := salt(i, s, v)
			var pk, sk int64
			if sa == -1 && sPart > 0 && sSupp > 0 {
				pk = int64(st.cell(i, 0, -1)) % int64(sPart)
				sk = int64(st.cell(i, 1, -1)) % int64(sSupp)
			} else {
				pk = int64(st.cell(i, 0, sa)) % int64(nPart)
				sk = int64(st.cell(i, 1, sa)) % int64(nSupp)
			}
			c[0][i] = relation.Value(pk)
			c[1][i] = relation.Value(sk)
			c[2][i] = st.cell(i, 2, sa) % 1000
			c[3][i] = st.cell(i, 3, sa) % 10000
		})
}
