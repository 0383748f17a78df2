package tpch

import (
	"testing"

	"sampleunion/internal/overlap"
	"sampleunion/internal/relation"
)

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(Config{SF: 1, Overlap: 0.3, Seed: 7})
	b := NewGenerator(Config{SF: 1, Overlap: 0.3, Seed: 7})
	ra, rb := a.Supplier(2), b.Supplier(2)
	if ra.Len() != rb.Len() {
		t.Fatalf("sizes differ: %d vs %d", ra.Len(), rb.Len())
	}
	for i := 0; i < ra.Len(); i++ {
		if !ra.Row(i).Equal(rb.Row(i)) {
			t.Fatalf("row %d differs", i)
		}
	}
	c := NewGenerator(Config{SF: 1, Overlap: 0.3, Seed: 8})
	diff := false
	rc := c.Supplier(2)
	for i := 0; i < ra.Len() && !diff; i++ {
		if !ra.Row(i).Equal(rc.Row(i)) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical suppliers")
	}
}

func TestSharedPrefixAcrossVariants(t *testing.T) {
	g := NewGenerator(Config{SF: 1, Overlap: 0.4, Seed: 1})
	v0, v1 := g.Customer(0), g.Customer(1)
	shared := g.sharedCount(v0.Len())
	if shared == 0 || shared == v0.Len() {
		t.Fatalf("degenerate shared count %d of %d", shared, v0.Len())
	}
	for i := 0; i < shared; i++ {
		if !v0.Row(i).Equal(v1.Row(i)) {
			t.Fatalf("shared row %d differs across variants", i)
		}
	}
	same := 0
	for i := shared; i < v0.Len(); i++ {
		if v0.Row(i).Equal(v1.Row(i)) {
			same++
		}
	}
	if same > (v0.Len()-shared)/4 {
		t.Errorf("too many variant rows identical: %d of %d", same, v0.Len()-shared)
	}
}

func TestScaleFactorScalesRows(t *testing.T) {
	small := NewGenerator(Config{SF: 1, Seed: 1})
	big := NewGenerator(Config{SF: 2, Seed: 1})
	if got, want := big.Orders(0).Len(), 2*small.Orders(0).Len(); got != want {
		t.Errorf("orders at SF2 = %d, want %d", got, want)
	}
	if small.Nation().Len() != NationCount || big.Nation().Len() != NationCount {
		t.Error("nation must not scale")
	}
}

func TestConfigDefaults(t *testing.T) {
	g := NewGenerator(Config{SF: -1, Overlap: -0.5})
	cfg := g.Config()
	if cfg.SF != 1 || cfg.Overlap != 0.2 {
		t.Errorf("defaults = %+v", cfg)
	}
	g2 := NewGenerator(Config{Overlap: 2})
	if g2.Config().Overlap != 1 {
		t.Errorf("overlap not clamped: %f", g2.Config().Overlap)
	}
}

func TestForeignKeysResolve(t *testing.T) {
	g := NewGenerator(Config{SF: 1, Overlap: 0.2, Seed: 3})
	nCust := g.Customer(0).Len()
	orders := g.Orders(0)
	for i := 0; i < orders.Len(); i++ {
		ck := orders.Value(i, 1)
		if ck < 0 || int(ck) >= nCust {
			t.Fatalf("order %d has custkey %d outside [0,%d)", i, ck, nCust)
		}
	}
	nOrd := orders.Len()
	li := g.Lineitem(0)
	for i := 0; i < li.Len(); i++ {
		ok := li.Value(i, 0)
		if ok < 0 || int(ok) >= nOrd {
			t.Fatalf("lineitem %d has orderkey %d outside [0,%d)", i, ok, nOrd)
		}
	}
	ps := g.PartSupp(0)
	nPart, nSupp := g.Part(0).Len(), g.Supplier(0).Len()
	for i := 0; i < ps.Len(); i++ {
		if pk := ps.Value(i, 0); int(pk) >= nPart {
			t.Fatalf("partsupp partkey %d out of range", pk)
		}
		if sk := ps.Value(i, 1); int(sk) >= nSupp {
			t.Fatalf("partsupp suppkey %d out of range", sk)
		}
	}
}

func TestUQ1Shape(t *testing.T) {
	w, err := UQ1(Config{SF: 0.5, Overlap: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Joins) != 5 {
		t.Fatalf("UQ1 joins = %d, want 5", len(w.Joins))
	}
	ref := w.Joins[0].OutputSchema()
	for _, j := range w.Joins {
		if !j.IsChain() {
			t.Errorf("%s is not a chain", j.Name())
		}
		if !j.OutputSchema().Equal(ref) {
			t.Errorf("%s output schema differs", j.Name())
		}
		if j.Count() == 0 {
			t.Errorf("%s is empty", j.Name())
		}
	}
}

func TestUQ1OverlapGrowsWithScale(t *testing.T) {
	measure := func(p float64) float64 {
		w, err := UQ1N(Config{SF: 0.3, Overlap: p, Seed: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		tab, _, err := overlap.Exact(w.Joins)
		if err != nil {
			t.Fatal(err)
		}
		return tab.Get(0b11)
	}
	lo, mid, hi := measure(0.1), measure(0.5), measure(0.9)
	if !(lo < mid && mid < hi) {
		t.Fatalf("overlap not monotone in scale: %.0f, %.0f, %.0f", lo, mid, hi)
	}
	if hi == 0 {
		t.Fatal("high overlap scale produced zero overlap")
	}
}

func TestUQ2Shape(t *testing.T) {
	w, err := UQ2(Config{SF: 0.5, Overlap: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Joins) != 3 {
		t.Fatalf("UQ2 joins = %d, want 3", len(w.Joins))
	}
	tab, unionSize, err := overlap.Exact(w.Joins)
	if err != nil {
		t.Fatal(err)
	}
	if unionSize == 0 {
		t.Fatal("UQ2 union empty")
	}
	// Same data, different predicates: heavy overlap by construction.
	all := tab.Get(0b111)
	if all == 0 {
		t.Error("UQ2 three-way overlap empty; predicates too selective")
	}
	for i := range w.Joins {
		if frac := all / tab.JoinSize(i); frac < 0.2 {
			t.Errorf("UQ2 join %d overlap fraction %.2f; want large", i, frac)
		}
	}
}

func TestUQ3Shape(t *testing.T) {
	w, err := UQ3(Config{SF: 0.5, Overlap: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Joins) != 3 {
		t.Fatalf("UQ3 joins = %d, want 3", len(w.Joins))
	}
	if w.Joins[0].IsChain() != true || w.Joins[1].IsChain() != true {
		t.Error("UQ3 J1/J2 should be chains")
	}
	if w.Joins[2].IsChain() {
		t.Error("UQ3 J3 should be a non-chain acyclic join")
	}
	// Same output attribute set across joins (order may differ).
	ref := w.Joins[0].OutputSchema()
	for _, j := range w.Joins[1:] {
		s := j.OutputSchema()
		if s.Len() != ref.Len() {
			t.Fatalf("%s arity %d != %d", j.Name(), s.Len(), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			if !s.Has(ref.Attr(i)) {
				t.Fatalf("%s lacks %q", j.Name(), ref.Attr(i))
			}
		}
	}
	tab, unionSize, err := overlap.Exact(w.Joins)
	if err != nil {
		t.Fatal(err)
	}
	if unionSize == 0 {
		t.Fatal("UQ3 union empty")
	}
	if tab.Get(0b011) == 0 && tab.Get(0b101) == 0 && tab.Get(0b110) == 0 {
		t.Error("UQ3 has no pairwise overlap at overlap scale 0.3")
	}
}

// TestWorkloadsBuildsAll: ByName builds each of the three workloads
// and refuses any other name.
func TestWorkloadsBuildsAll(t *testing.T) {
	for _, name := range []string{"UQ1", "UQ2", "UQ3"} {
		if w, err := ByName(name, Config{SF: 0.3, Overlap: 0.2, Seed: 1}); err != nil || w == nil {
			t.Errorf("workload %s: %v", name, err)
		}
	}
	if _, err := ByName("UQ4", Config{SF: 0.3}); err == nil {
		t.Error("ByName built an unknown workload")
	}
}

func TestRelationsDuplicateFree(t *testing.T) {
	// The framework assumes no duplicates within each join (§3); base
	// relations must be duplicate-free.
	g := NewGenerator(Config{SF: 1, Overlap: 0.2, Seed: 5})
	for _, r := range []*relation.Relation{
		g.Supplier(0), g.Customer(1), g.Orders(2), g.Lineitem(0), g.Part(1), g.PartSupp(2),
	} {
		seen := make(map[string]bool, r.Len())
		for i := 0; i < r.Len(); i++ {
			k := relation.TupleKey(r.Row(i))
			if seen[k] {
				t.Errorf("%s row %d duplicated", r.Name(), i)
				break
			}
			seen[k] = true
		}
	}
}
