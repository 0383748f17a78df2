package sampleunion

import (
	"testing"
)

func TestSampleWhere(t *testing.T) {
	u := demoUnion(t)
	pred := Cmp{Attr: "custkey", Op: LT, Val: 20}
	s := prepared(t, u, Options{Warmup: WarmupExact, Seed: 6})
	out, stats, err := s.SampleWhere(200, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 200 {
		t.Fatalf("got %d samples", len(out))
	}
	ck := u.OutputSchema().Index("custkey")
	for _, tu := range out {
		if tu[ck] >= 20 {
			t.Fatalf("predicate violated: %v", tu)
		}
		if !u.Contains(tu) {
			t.Fatalf("sample outside union: %v", tu)
		}
	}
	if stats.Accepted < 200 {
		t.Errorf("accepted = %d", stats.Accepted)
	}
}

func TestSampleWhereOnline(t *testing.T) {
	u := demoUnion(t)
	pred := Cmp{Attr: "nationkey", Op: EQ, Val: 2}
	s := prepared(t, u, Options{Online: true, WarmupWalks: 200, Seed: 7})
	out, _, err := s.SampleWhere(100, pred)
	if err != nil {
		t.Fatal(err)
	}
	nk := u.OutputSchema().Index("nationkey")
	for _, tu := range out {
		if tu[nk] != 2 {
			t.Fatalf("predicate violated: %v", tu)
		}
	}
}

func TestSampleWhereImpossible(t *testing.T) {
	u := demoUnion(t)
	pred := Cmp{Attr: "custkey", Op: GT, Val: 100000}
	if _, _, err := prepared(t, u, Options{Warmup: WarmupExact}).SampleWhere(5, pred); err == nil {
		t.Fatal("impossible predicate succeeded")
	}
}

func TestPushDownAPI(t *testing.T) {
	u := demoUnion(t)
	fu, err := u.PushDown(Cmp{Attr: "custkey", Op: LT, Val: 20})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := fu.ExactUnionSize()
	if err != nil {
		t.Fatal(err)
	}
	// Customers 0..19 exist only in east, 2 orders each.
	if exact != 40 {
		t.Fatalf("filtered union = %d, want 40", exact)
	}
	s := prepared(t, fu, Options{Warmup: WarmupExact, Seed: 8})
	out, _, err := s.Sample(100)
	if err != nil {
		t.Fatal(err)
	}
	ck := fu.OutputSchema().Index("custkey")
	for _, tu := range out {
		if tu[ck] >= 20 {
			t.Fatalf("pushdown leaked %v", tu)
		}
	}
	// Pushdown of an unplaceable predicate fails loudly.
	if _, err := u.PushDown(And{
		Cmp{Attr: "nationkey", Op: EQ, Val: 1},
		Cmp{Attr: "orderkey", Op: EQ, Val: 1},
	}); err == nil {
		t.Error("cross-relation predicate pushed down")
	}
}

// Re-exported predicate helpers used by the tests above.
var (
	_ = NewIn
)
