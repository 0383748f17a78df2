package join

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sampleunion/internal/relation"
)

// keyedRelation is a relation (K, P<i>) of rows rows, all on join key 0.
func keyedRelation(i, rows int) *relation.Relation {
	r := relation.New(fmt.Sprintf("R%d", i), relation.NewSchema("K", fmt.Sprintf("P%d", i)))
	keys, payload := make([]relation.Value, rows), make([]relation.Value, rows)
	for n := range payload {
		payload[n] = relation.Value(n)
	}
	r.AppendColumns([][]relation.Value{keys, payload})
	return r
}

// overflowChain is a chain of relations of the given sizes, all on join
// key 0, so |J| is the product of the sizes.
func overflowChain(t *testing.T, sizes ...int) (*Join, []*relation.Relation) {
	t.Helper()
	rels := make([]*relation.Relation, len(sizes))
	attrs := make([]string, len(sizes)-1)
	for i, n := range sizes {
		rels[i] = keyedRelation(i, n)
	}
	for i := range attrs {
		attrs[i] = "K"
	}
	j, err := NewChain("wide", rels, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return j, rels
}

// TestWeightOverflow: exact weights past math.MaxInt64 are an error that
// names the join, wherever they arise — a running sum (four 65 536-row
// relations on one key: |J| = 2^64; 2^48 · 32 767 results, one row
// more) or a product of two subtrees' totals (2^32 · 2^31), in a cold
// build and in a patch — never a silently wrapped weight. Count
// saturates.
func TestWeightOverflow(t *testing.T) {
	isOverflow := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrWeightOverflow) || !strings.Contains(err.Error(), "join wide") {
			t.Fatalf("%s: error %v, want ErrWeightOverflow naming join wide", what, err)
		}
	}
	j, _ := overflowChain(t, 1<<16, 1<<16, 1<<16, 1<<16)
	_, err := j.ExactWeights()
	isOverflow("sum, cold", err)
	if got := j.Count(); got != math.MaxInt64 {
		t.Errorf("Count of 2^64 results: %d, want math.MaxInt64", got)
	}

	j, rels := overflowChain(t, 1<<16, 1<<16, 1<<16, 1<<15-1)
	w := exactWeights(t, j)
	if want := int64(1<<48) * (1<<15 - 1); w.Count() != want {
		t.Fatalf("Count %d, want %d", w.Count(), want)
	}
	rels[3].AppendValues(0, -1)
	_, _, err = j.PatchWeights(w)
	isOverflow("sum, patch", err)

	// The root joins two chains of four relations on one key: 2^32
	// results under the first, 2^24 · 127 under the second, and 2^31 once
	// its last relation gains a row.
	sizes := []int{1, 256, 256, 256, 256, 256, 256, 256, 127}
	rels = make([]*relation.Relation, len(sizes))
	for i, n := range sizes {
		rels[i] = keyedRelation(i, n)
	}
	parent := []int{-1, 0, 1, 2, 3, 0, 5, 6, 7}
	attrs := []string{"", "K", "K", "K", "K", "K", "K", "K", "K"}
	if j, err = NewTree("wide", rels, parent, attrs); err != nil {
		t.Fatal(err)
	}
	w = exactWeights(t, j)
	rels[8].AppendValues(0, -1)
	_, _, err = j.PatchWeights(w)
	isOverflow("product, patch", err)
	_, err = j.ExactWeights()
	isOverflow("product, cold", err)
}

// TestScaledWeightOverflow: a segment's total is its scale times its rows'
// own total, and the product is checked as the factors are. A node S
// holds two rows of own weight 2^32 each, from a chain of two 65 536-row
// relations on J, and its keyed child A lacks S's value, so S's segment
// keeps its own total 2^33 at scale 0. One row for that value in A gives
// it the total of A's keyed chain, 2^16 · 2^15: a scale of 2^31, which
// fits, as 2^33 does, while their product, 2^64, wraps to 0. The patch —
// which only rescales S — and a cold build both fail with
// ErrWeightOverflow instead.
func TestScaledWeightOverflow(t *testing.T) {
	rel := func(name, attr string, rows int) *relation.Relation {
		r := relation.New(name, relation.NewSchema(attr, "P"+name))
		keys, payload := make([]relation.Value, rows), make([]relation.Value, rows)
		for n := range payload {
			payload[n] = relation.Value(n)
		}
		r.AppendColumns([][]relation.Value{keys, payload})
		return r
	}
	s := relation.New("S", relation.NewSchema("K", "J"))
	s.AppendValues(0, 0)
	s.AppendValues(0, 0)
	a := relation.New("A", relation.NewSchema("K", "PA"))
	a.AppendValues(1, 0)
	rels := []*relation.Relation{rel("R", "K", 1), s, a, rel("B", "K", 1<<16), rel("Bc", "K", 1<<15), rel("C", "J", 1<<16), rel("D", "J", 1<<16)}
	j, err := NewTree("wide", rels, []int{-1, 0, 1, 2, 3, 1, 5}, []string{"", "K", "K", "K", "K", "J", "J"})
	if err != nil {
		t.Fatal(err)
	}
	w := exactWeights(t, j)
	if _, own, scale, _ := w.Nodes[1].Segment(0); !slices.Equal(own, []int64{1 << 32, 1 << 33}) || scale != 0 || w.Count() != 0 {
		t.Fatalf("S's segment: own sums %v at scale %d, count %d; want [2^32 2^33] at scale 0, count 0", own, scale, w.Count())
	}
	a.AppendValues(0, -1)
	if _, _, err = j.PatchWeights(w); !errors.Is(err, ErrWeightOverflow) {
		t.Errorf("patch to a scaled total of 2^64: error %v, want ErrWeightOverflow", err)
	}
	if _, err = j.ExactWeights(); !errors.Is(err, ErrWeightOverflow) {
		t.Errorf("cold build of a scaled total of 2^64: error %v, want ErrWeightOverflow", err)
	}
}
