package sampleunion

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// demoUnion builds two small overlapping chain joins through the public
// API only.
func demoUnion(t *testing.T) *Union {
	t.Helper()
	mk := func(suffix string, lo, hi int) *Join {
		a := NewRelation("cust_"+suffix, NewSchema("custkey", "nationkey"))
		b := NewRelation("ord_"+suffix, NewSchema("orderkey", "custkey"))
		for k := lo; k < hi; k++ {
			a.AppendValues(Value(k), Value(k%5))
			b.AppendValues(Value(k*10), Value(k))
			b.AppendValues(Value(k*10+1), Value(k))
		}
		j, err := Chain("J_"+suffix, []*Relation{a, b}, []string{"custkey"})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	u, err := NewUnion(mk("east", 0, 30), mk("west", 15, 45))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// prepared prepares a session over u, failing the test on error.
func prepared(t testing.TB, u *Union, o Options) *Session {
	t.Helper()
	s, err := u.Prepare(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUnionSampleModes(t *testing.T) {
	u := demoUnion(t)
	exact, err := u.ExactUnionSize()
	if err != nil {
		t.Fatal(err)
	}
	if exact != 90 { // 30+30 customers, 2 orders each, 15 shared
		t.Fatalf("exact union = %d, want 90", exact)
	}
	cases := []Options{
		{Warmup: WarmupExact, Seed: 1},
		{Warmup: WarmupRandomWalk, Seed: 2},
		{Warmup: WarmupHistogram, Seed: 3},
		{Online: true, WarmupWalks: 300, Seed: 4},
	}
	for _, o := range cases {
		out, stats, err := prepared(t, u, o).Sample(500)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if len(out) != 500 {
			t.Fatalf("%+v: got %d samples", o, len(out))
		}
		if stats.Accepted < 500 {
			t.Errorf("%+v: accepted = %d", o, stats.Accepted)
		}
		for _, tu := range out {
			if !u.Contains(tu) {
				t.Fatalf("%+v: sample %v outside union", o, tu)
			}
		}
	}
}

func TestUnionSampleDisjoint(t *testing.T) {
	u := demoUnion(t)
	out, stats, err := prepared(t, u, Options{Seed: 5}).SampleDisjoint(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 300 || stats.Accepted != 300 {
		t.Fatalf("disjoint: %d samples, %d accepted", len(out), stats.Accepted)
	}
}

func TestUnionEstimateSize(t *testing.T) {
	u := demoUnion(t)
	exact, _ := u.ExactUnionSize()
	est, err := u.EstimateUnionSize(Options{Warmup: WarmupRandomWalk, WarmupWalks: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if rel := (est - float64(exact)) / float64(exact); rel > 0.1 || rel < -0.1 {
		t.Errorf("random-walk union estimate %.1f vs exact %d", est, exact)
	}
	// Histogram estimate is bound-based: it must be positive and at
	// least the largest join's lower bound behavior is covered by the
	// internal packages; here just check it runs.
	if _, err := u.EstimateUnionSize(Options{Warmup: WarmupHistogram}); err != nil {
		t.Fatal(err)
	}
}

func TestNewUnionValidation(t *testing.T) {
	if _, err := NewUnion(); err == nil {
		t.Error("empty union accepted")
	}
	a := NewRelation("a", NewSchema("x"))
	a.AppendValues(1)
	b := NewRelation("b", NewSchema("y"))
	b.AppendValues(1)
	ja, _ := Chain("JA", []*Relation{a}, nil)
	jb, _ := Chain("JB", []*Relation{b}, nil)
	if _, err := NewUnion(ja, jb); err == nil {
		t.Error("mismatched schemas accepted")
	}
}

// TestUnionContainsAllocatesNothing: Contains probes each join through
// an alignment prepared with the union, also for a join whose output
// lists the attributes in another order, and allocates nothing once the
// membership tables are built.
func TestUnionContainsAllocatesNothing(t *testing.T) {
	a := NewRelation("cust", NewSchema("custkey", "nationkey"))
	b := NewRelation("ord", NewSchema("orderkey", "custkey"))
	for k := 0; k < 30; k++ {
		a.AppendValues(Value(k), Value(k%5))
		b.AppendValues(Value(k*10), Value(k))
	}
	east, err := Chain("east", []*Relation{a, b}, []string{"custkey"})
	if err != nil {
		t.Fatal(err)
	}
	c := NewRelation("ord_w", NewSchema("orderkey", "custkey"))
	d := NewRelation("cust_w", NewSchema("custkey", "nationkey"))
	for k := 30; k < 40; k++ {
		c.AppendValues(Value(k*10), Value(k))
		d.AppendValues(Value(k), Value(k%5))
	}
	west, err := Chain("west", []*Relation{c, d}, []string{"custkey"})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(east, west)
	if err != nil {
		t.Fatal(err)
	}
	if west.OutputSchema().Equal(u.OutputSchema()) {
		t.Fatal("fixture: west lists the attributes in the union's order")
	}
	// (custkey, nationkey, orderkey): one row of east, one of west, none.
	in, inWest, out := Tuple{3, 3, 30}, Tuple{35, 0, 350}, Tuple{35, 1, 350}
	if !u.Contains(in) || !u.Contains(inWest) || u.Contains(out) {
		t.Fatalf("Contains: %v %v %v, want true true false", u.Contains(in), u.Contains(inWest), u.Contains(out))
	}
	if allocs := testing.AllocsPerRun(100, func() { u.Contains(inWest); u.Contains(out) }); allocs != 0 {
		t.Errorf("Contains allocates %.1f times per call pair", allocs)
	}
}

// TestWarmupStrings pins the constants' values: they are the wire and
// flag spellings, hashed into registry keys and written to manifests.
func TestWarmupStrings(t *testing.T) {
	if WarmupHistogram != "histogram" || WarmupRandomWalk != "random-walk" ||
		WarmupExact != "exact" {
		t.Error("warmup names wrong")
	}
}

func TestCyclicThroughPublicAPI(t *testing.T) {
	r := NewRelation("R", NewSchema("A", "B"))
	s := NewRelation("S", NewSchema("B", "C"))
	w := NewRelation("W", NewSchema("C", "A"))
	for i := 0; i < 10; i++ {
		r.AppendValues(Value(i), Value(i+100))
		s.AppendValues(Value(i+100), Value(i+200))
		w.AppendValues(Value(i+200), Value(i))
	}
	j, err := Cyclic("tri", []*Relation{r, s, w},
		[]Edge{{A: 0, B: 1, Attr: "B"}, {A: 1, B: 2, Attr: "C"}, {A: 2, B: 0, Attr: "A"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnion(j)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := prepared(t, u, Options{Warmup: WarmupExact}).Sample(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range out {
		if !u.Contains(tu) {
			t.Fatalf("cyclic sample %v invalid", tu)
		}
	}
}

// TestMethodWJThroughAPI: the join subroutine is not an option. Options
// has no Method field, so the removed "WJ" — and "EO" and "EW" with it —
// is an unknown field of a strictly decoded "options" object, the form a
// served declaration and a manifest entry take.
func TestMethodWJThroughAPI(t *testing.T) {
	if _, ok := reflect.TypeOf(Options{}).FieldByName("Method"); ok {
		t.Fatal("Options has a Method field")
	}
	for _, m := range []string{"WJ", "EO", "EW"} {
		dec := json.NewDecoder(strings.NewReader(`{"warmup": "random-walk", "method": "` + m + `"}`))
		dec.DisallowUnknownFields()
		var o Options
		if err := dec.Decode(&o); err == nil || !strings.Contains(err.Error(), `unknown field "method"`) {
			t.Errorf("method %s: decode err = %v, want unknown field \"method\"", m, err)
		}
	}
}

// TestManyJoinsNeedNoSubsetTable: nothing but the histogram warm-up's
// subset table is dense in 2^k, so a union of 21 joins — one past that
// table's cap — prepares and samples under the zero Options and counts
// exactly, while WarmupHistogram refuses it with the table's own error.
func TestManyJoinsNeedNoSubsetTable(t *testing.T) {
	joins := make([]*Join, 21)
	for i := range joins {
		a := NewRelation(fmt.Sprintf("cust_%d", i), NewSchema("custkey", "nationkey"))
		b := NewRelation(fmt.Sprintf("ord_%d", i), NewSchema("orderkey", "custkey"))
		for k := 5 * i; k < 5*i+20; k++ {
			a.AppendValues(Value(k), Value(k%5))
			b.AppendValues(Value(k*10), Value(k))
			b.AppendValues(Value(k*10+1), Value(k))
		}
		j, err := Chain(fmt.Sprintf("J_%d", i), []*Relation{a, b}, []string{"custkey"})
		if err != nil {
			t.Fatal(err)
		}
		joins[i] = j
	}
	u, err := NewUnion(joins...)
	if err != nil {
		t.Fatal(err)
	}
	if exact, err := u.ExactUnionSize(); err != nil || exact != 240 { // custkeys 0..119, 2 orders each
		t.Errorf("ExactUnionSize = %d, %v; want 240", exact, err)
	}
	s, err := u.Prepare(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := s.Sample(50)
	if err != nil || len(out) != 50 {
		t.Fatalf("Sample(50): %d tuples, %v", len(out), err)
	}
	for _, tu := range out {
		if !u.Contains(tu) {
			t.Fatalf("sample %v outside the union", tu)
		}
	}
	_, err = u.Prepare(Options{Warmup: WarmupHistogram})
	if err == nil || !strings.Contains(err.Error(), "overlap: need 1..20 joins, got 21") {
		t.Errorf("histogram warm-up over 21 joins: err %v, want the subset table's cap", err)
	}
}
