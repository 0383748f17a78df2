package join

import (
	"testing"

	"sampleunion/internal/relation"
)

func enumerate(j *Join) map[string]bool {
	out := make(map[string]bool)
	j.Enumerate(func(t relation.Tuple) bool {
		out[relation.TupleKey(t)] = true
		return true
	})
	return out
}

func rebindFixture(t *testing.T) (*Join, []*relation.Relation) {
	t.Helper()
	a := relation.New("a", relation.NewSchema("K", "X"))
	b := relation.New("b", relation.NewSchema("K", "Y"))
	for i := 0; i < 30; i++ {
		a.AppendValues(relation.Value(i%7), relation.Value(i))
		b.AppendValues(relation.Value(i%7), relation.Value(100+i))
	}
	j, err := NewChain("c", []*relation.Relation{a, b}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	return j, []*relation.Relation{a, b}
}

func TestRebindIdentity(t *testing.T) {
	j, _ := rebindFixture(t)
	rj, err := Rebind(j, "copy", func(r *relation.Relation) (*relation.Relation, error) {
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rj.Name() != "copy" {
		t.Fatalf("name %q", rj.Name())
	}
	want, got := enumerate(j), enumerate(rj)
	if len(want) != len(got) {
		t.Fatalf("identity rebind has %d results, original %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("result %x missing after identity rebind", k)
		}
	}
}

func TestRebindFilter(t *testing.T) {
	j, _ := rebindFixture(t)
	pred := relation.Cmp{Attr: "K", Op: relation.LE, Val: 3}
	rj, err := Rebind(j, "filtered", func(r *relation.Relation) (*relation.Relation, error) {
		return r.Filter(r.Name()+"_f", pred), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := enumerate(rj)
	if len(got) == 0 {
		t.Fatal("filtered rebind is empty")
	}
	out := rj.OutputSchema()
	kPos := out.Index("K")
	rj.Enumerate(func(tu relation.Tuple) bool {
		if tu[kPos] > 3 {
			t.Fatalf("filtered rebind produced K=%d", tu[kPos])
		}
		return true
	})
	// Every filtered result is an original result.
	want := enumerate(j)
	for k := range got {
		if !want[k] {
			t.Fatalf("filtered rebind produced %x, not an original result", k)
		}
	}
}

func TestRebindCyclic(t *testing.T) {
	r := relation.New("R", relation.NewSchema("A", "B"))
	s := relation.New("S", relation.NewSchema("B", "C"))
	x := relation.New("T", relation.NewSchema("C", "A"))
	for i := 0; i < 25; i++ {
		r.AppendValues(relation.Value(i%4), relation.Value(i%5))
		s.AppendValues(relation.Value(i%5), relation.Value(i%3))
		x.AppendValues(relation.Value(i%3), relation.Value(i%4))
	}
	j, err := NewCyclic("tri", []*relation.Relation{r, s, x}, []Edge{
		{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := Rebind(j, "tri2", func(rel *relation.Relation) (*relation.Relation, error) {
		return rel, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rj.IsCyclic() {
		t.Fatal("rebound cyclic join lost its residual")
	}
	want, got := enumerate(j), enumerate(rj)
	if len(want) == 0 {
		t.Fatal("fixture triangle is empty")
	}
	if len(want) != len(got) {
		t.Fatalf("rebound cyclic join has %d results, original %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("cyclic result %x missing after rebind", k)
		}
	}
	// Membership works on the rebound join too.
	probe, err := rj.AlignProbe(j.OutputSchema())
	if err != nil {
		t.Fatal(err)
	}
	j.Enumerate(func(tu relation.Tuple) bool {
		if !probe.Contains(tu) {
			t.Fatalf("rebound cyclic join does not contain %v", tu)
		}
		return false
	})
}

func TestRebindError(t *testing.T) {
	j, _ := rebindFixture(t)
	_, err := Rebind(j, "bad", func(r *relation.Relation) (*relation.Relation, error) {
		return nil, errTest
	})
	if err == nil {
		t.Fatal("substitution error not propagated")
	}
}

var errTest = &rebindTestError{}

type rebindTestError struct{}

func (*rebindTestError) Error() string { return "boom" }
