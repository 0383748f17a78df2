package join

import (
	"errors"
	"fmt"
	"math"
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
